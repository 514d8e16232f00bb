package endure

import (
	"reflect"
	"slices"
	"testing"

	"dynmds/internal/cluster"
)

// TestConfigHashCoversEveryField perturbs every leaf field of
// cluster.Config, one at a time, and drops every optional section, and
// requires each change to move the config hash, so that a field added
// later without hashing fails here. The fields left out are listed,
// each with the reason it is.
func TestConfigHashCoversEveryField(t *testing.T) {
	exempt := map[string]string{
		"Faults":               "chaos shrinking restores a snapshot under a reduced schedule",
		"Soak":                 "plan.Apply writes it into Faults and zeroes it",
		"Snapshot":             "a shared frozen namespace, a pure function of FS and Seed",
		"MDS.Storage.Pool":     "the OSD pool object, nil in endurance runs",
		"Acts":                 "EndureCheck refuses acts",
		"OSDs":                 "EndureCheck refuses a shared OSD pool",
		"NoEmbed":              "EndureCheck refuses the embedded-inode ablation",
		"Checkpoint":           "the cadence decides when a run is checked, never what it simulates",
		"Shards":               "read by nothing",
		"Traffic.Replications": "traffic control's run state",
		"Traffic.rules":        "traffic control's run state",
		"Traffic.fwd":          "traffic control's run state",
	}
	fresh := func() cluster.Config {
		cfg := cluster.Default()
		cfg.OpenLoop = churn(20000, 0.02)
		return cfg
	}
	base := fresh()
	want := configHash(&base)
	perturb := func(path string, index []int, change func(reflect.Value)) {
		cfg := fresh()
		v := reflect.ValueOf(&cfg).Elem()
		for _, i := range index {
			if v.Kind() == reflect.Pointer {
				if v.IsNil() {
					t.Fatalf("%s: the test's config leaves a section nil", path)
				}
				v = v.Elem()
			}
			v = v.Field(i)
		}
		change(v)
		if configHash(&cfg) == want {
			t.Errorf("%s: changing it leaves the config hash as it was", path)
		}
	}
	seen := map[string]bool{}
	leaves := 0
	var walk func(prefix string, index []int, typ reflect.Type)
	walk = func(prefix string, index []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path, index := prefix+f.Name, append(slices.Clone(index), i)
			if _, ok := exempt[path]; ok {
				seen[path] = true
				continue
			}
			if !f.IsExported() {
				t.Errorf("%s: an unexported field the hash cannot see; list it if it is run state", path)
				continue
			}
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				perturb(path+" (dropped)", index, func(v reflect.Value) { v.Set(reflect.Zero(v.Type())) })
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(path+".", index, ft)
				continue
			}
			leaves++
			perturb(path, index, func(v reflect.Value) {
				if v.Kind() == reflect.Pointer {
					v = v.Elem()
				}
				switch v.Kind() {
				case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
					v.SetInt(v.Int() + 1)
				case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
					v.SetUint(v.Uint() + 1)
				case reflect.Float32, reflect.Float64:
					v.SetFloat(v.Float() + 0.5)
				case reflect.Bool:
					v.SetBool(!v.Bool())
				case reflect.String:
					v.SetString(v.String() + "x")
				default:
					t.Errorf("%s: a %s field the test cannot perturb; hash it or list it", path, v.Kind())
				}
			})
		}
	}
	walk("", nil, reflect.TypeOf(base))
	for path := range exempt {
		if !seen[path] {
			t.Errorf("%s is listed as left out of the hash and is no field of cluster.Config", path)
		}
	}
	if leaves < 50 {
		t.Fatalf("perturbed %d leaf fields: the walk is broken", leaves)
	}
}
