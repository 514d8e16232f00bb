package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

// twoStepReference is the serve path as it was before the directory rule
// moved into traffic control: traffic control's Peek and Commit (tc nil
// when the §4.4 rule is off), then the lease plane's fan-out on the same
// tags, with a peer to push to. It reports the decision that took effect
// on the ReplicatedAll tag.
func twoStepReference(tc *TrafficControl, fanout bool, now sim.Time, ino *namespace.Inode) Decision {
	const fanoutPopularity = 200
	out := Keep
	tags := partition.TagsOf(ino)
	if tc != nil && tags.Has(namespace.PopTouched) {
		v := tags.Pop.Peek(now, partition.PopHalfLife)
		switch replicated := tags.Has(namespace.ReplicatedAll); {
		case !replicated && v >= tc.ReplicateThreshold:
			tags.Set(namespace.ReplicatedAll, true)
			tc.Replications++
			out = Replicate
		case replicated && v < tc.ReplicateThreshold/10:
			tags.Set(namespace.ReplicatedAll, false)
			out = Consolidate
		}
	}
	if !fanout || !ino.IsDir() || ino.Parent() == nil || !tags.Has(namespace.PopTouched) {
		return out
	}
	pop := tags.Pop.Peek(now, partition.PopHalfLife)
	if !tags.Has(namespace.ReplicatedAll) {
		if pop >= fanoutPopularity {
			tags.Set(namespace.ReplicatedAll, true)
			out = ReplicateDir
		}
		return out
	}
	if tc == nil && pop < fanoutPopularity/10 {
		tags.Set(namespace.ReplicatedAll, false)
		out = Consolidate
	}
	return out
}

// popPath is a popularity history: at each step the clock advances by
// dt and the counter gains add accesses.
type popPath struct {
	name  string
	steps int
	dt    sim.Time
	add   func(step int) float64
}

var popPaths = []popPath{
	{"rise", 400, sim.Millisecond, func(int) float64 { return 2 }},
	{"rise-then-decay", 300, 50 * sim.Millisecond, func(i int) float64 {
		if i < 60 {
			return 30
		}
		return 0
	}},
	{"pulses", 600, 20 * sim.Millisecond, func(i int) float64 {
		if (i/100)%2 == 0 {
			return 12
		}
		return 0
	}},
	{"slow-hover", 800, 100 * sim.Millisecond, func(i int) float64 { return float64(3 + i%9) }},
}

// TestControllerMatchesTwoStepReference holds the one controller to the
// two steps it replaced, decision by decision and flag by flag, over
// the §4.4 threshold (off, below, at and above the directory rule's),
// fan-out on and off, a file, a directory and the root, and rising and
// decaying popularity.
func TestControllerMatchesTwoStepReference(t *testing.T) {
	tr, homes := buildTree(t)
	targets := map[string]*namespace.Inode{"file": homes[0].Child(0), "dir": homes[1], "root": tr.Root}
	total := map[Decision]int{}
	for _, at := range []float64{-1, 100, 200, 300} {
		for _, fanout := range []bool{false, true} {
			for name, ino := range targets {
				for _, path := range popPaths {
					var ref, tmpl *TrafficControl
					if at >= 0 {
						ref = &TrafficControl{ReplicateThreshold: at}
						tmpl = &TrafficControl{ReplicateThreshold: at}
					}
					tc := tmpl.ForCluster(fanout)
					label := fmt.Sprintf("replicate-at=%v/fanout=%t/%s/%s", at, fanout, name, path.name)
					ino.Tags = namespace.Tags{}
					seen := map[Decision]int{}
					now := sim.Time(0)
					for i := 0; i < path.steps; i++ {
						now += path.dt
						if a := path.add(i); a > 0 {
							partition.Popularity(ino).Add(now, partition.PopHalfLife, a)
						}
						before := ino.Tags
						want := twoStepReference(ref, fanout, now, ino)
						wantTags := ino.Tags
						ino.Tags = before
						got := tc.Peek(now, ino)
						if !tc.Commit(got, ino) {
							got = Keep
						}
						if got != want || ino.Tags != wantTags {
							t.Fatalf("%s step %d: decision %v (tags %+v), reference %v (tags %+v)",
								label, i, got, ino.Tags, want, wantTags)
						}
						seen[got]++
						total[got]++
					}
					if ref != nil && tc.Replications != ref.Replications {
						t.Fatalf("%s: %d replications, reference %d", label, tc.Replications, ref.Replications)
					}
					// Every armed rule that can fire on this target does.
					rule := (at >= 0 && at <= 300) || (fanout && name == "dir")
					if rule && path.name != "slow-hover" && seen[Replicate]+seen[ReplicateDir] == 0 {
						t.Fatalf("%s: nothing replicated (%v)", label, seen)
					}
				}
			}
		}
	}
	for _, d := range []Decision{Keep, Replicate, ReplicateDir, Consolidate} {
		if total[d] == 0 {
			t.Errorf("no case decided %v: the paths miss a branch", d)
		}
	}
}

// TestControllerTieAndHysteresis pins the rules' precedence: the §4.4
// rule wins a tie at the directory rule's threshold, and its tenth owns
// consolidation whenever it is on.
func TestControllerTieAndHysteresis(t *testing.T) {
	_, homes := buildTree(t)
	dir := homes[2]
	tc := (&TrafficControl{ReplicateThreshold: DirThreshold}).ForCluster(true)
	partition.Popularity(dir).Add(0, partition.PopHalfLife, DirThreshold)
	if d := tc.Peek(0, dir); d != Replicate || !tc.Commit(d, dir) || tc.Replications != 1 {
		t.Fatalf("tie at %v: decision %v, %d replications; want the §4.4 rule", float64(DirThreshold), d, tc.Replications)
	}
	// Under a 1000 threshold the §4.4 rule's tenth (100) consolidates a
	// count of 50 that the directory rule alone (tenth 20) keeps.
	hi := (&TrafficControl{ReplicateThreshold: 1000}).ForCluster(true)
	partition.TagsOf(homes[3]).Set(namespace.ReplicatedAll, true)
	partition.Popularity(homes[3]).Add(0, partition.PopHalfLife, 50)
	if d := hi.Peek(0, homes[3]); d != Consolidate {
		t.Fatalf("count 50 under a 1000 threshold: %v, want Consolidate (the §4.4 tenth owns it)", d)
	}
	dirsOnly := (*TrafficControl)(nil).ForCluster(true)
	if d := dirsOnly.Peek(0, homes[3]); d != Keep {
		t.Fatalf("count 50 under the directory rule alone: %v, want Keep", d)
	}
	if (*TrafficControl)(nil).ForCluster(false) != nil {
		t.Fatal("a controller with no rule on")
	}
}

// TestOnlyTrafficControlWritesReplicatedAll holds the tag to its one
// owner: outside internal/core, only the checkpoint restore of the tag
// block (internal/partition/snapshot.go) sets or clears ReplicatedAll.
func TestOnlyTrafficControlWritesReplicatedAll(t *testing.T) {
	root := filepath.Join("..", "..")
	allowed := map[string]bool{filepath.Join("internal", "partition", "snapshot.go"): true}
	writers := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Set" {
				return true
			}
			if !mentions(call.Args[0], "ReplicatedAll") {
				return true
			}
			writers++
			if filepath.Dir(rel) != filepath.Join("internal", "core") && !allowed[rel] {
				t.Errorf("%s writes ReplicatedAll; traffic control owns it", rel)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if writers == 0 {
		t.Fatal("found no writer of ReplicatedAll at all: the scan is broken")
	}
}

func mentions(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
