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

	"dynmds/internal/metrics"
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
					tc := tmpl.ForCluster(true, fanout, false)
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
	tc := (&TrafficControl{ReplicateThreshold: DirThreshold}).ForCluster(true, true, false)
	partition.Popularity(dir).Add(0, partition.PopHalfLife, DirThreshold)
	if d := tc.Peek(0, dir); d != Replicate || !tc.Commit(d, dir) || tc.Replications != 1 {
		t.Fatalf("tie at %v: decision %v, %d replications; want the §4.4 rule", float64(DirThreshold), d, tc.Replications)
	}
	// Under a 1000 threshold the §4.4 rule's tenth (100) consolidates a
	// count of 50 that the directory rule alone (tenth 20) keeps.
	hi := (&TrafficControl{ReplicateThreshold: 1000}).ForCluster(true, true, false)
	partition.TagsOf(homes[3]).Set(namespace.ReplicatedAll, true)
	partition.Popularity(homes[3]).Add(0, partition.PopHalfLife, 50)
	if d := hi.Peek(0, homes[3]); d != Consolidate {
		t.Fatalf("count 50 under a 1000 threshold: %v, want Consolidate (the §4.4 tenth owns it)", d)
	}
	dirsOnly := (*TrafficControl)(nil).ForCluster(true, true, false)
	if d := dirsOnly.Peek(0, homes[3]); d != Keep {
		t.Fatalf("count 50 under the directory rule alone: %v, want Keep", d)
	}
	if (*TrafficControl)(nil).ForCluster(true, false, false) != nil {
		t.Fatal("a controller with no rule on")
	}
}

// TestRulesArmedPerCluster pins which rules ForCluster arms: the
// replication rules and the pull only with peers, the lease rule on
// any cluster, and nothing at all is a nil controller.
func TestRulesArmedPerCluster(t *testing.T) {
	tmpl := &TrafficControl{ReplicateThreshold: 300, PreemptiveThreshold: 2}
	for _, c := range []struct {
		peers, dirs, leases bool
		want                uint8
	}{
		{true, true, true, ruleReplicate | rulePull | ruleDirs | ruleLease},
		{true, false, false, ruleReplicate | rulePull},
		{false, true, false, 0},
		{false, true, true, ruleLease},
	} {
		var got uint8
		if tc := tmpl.ForCluster(c.peers, c.dirs, c.leases); tc != nil {
			got = tc.rules
			if got == 0 {
				t.Errorf("ForCluster(%t, %t, %t) is a controller with no rule on", c.peers, c.dirs, c.leases)
			}
		}
		if got != c.want {
			t.Errorf("ForCluster(%t, %t, %t) armed %04b, want %04b", c.peers, c.dirs, c.leases, got, c.want)
		}
	}
	if tc := (&TrafficControl{ReplicateThreshold: 300}).ForCluster(true, false, false); tc.rules != ruleReplicate {
		t.Errorf("no preemptive threshold armed %04b, want the §4.4 rule alone", tc.rules)
	}
}

// grantReference is the grant block of mds.reply as it was before the
// lease rule moved into traffic control, less the registry's capacity
// check, which stays in mds: a read of a touched record whose decayed
// popularity has reached the old lease.GrantPopularity (20).
func grantReference(leases, update bool, now sim.Time, ino *namespace.Inode) bool {
	if !leases || update {
		return false
	}
	tags := partition.TagsOf(ino)
	return tags.Has(namespace.PopTouched) && tags.Pop.Peek(now, partition.PopHalfLife) >= 20
}

// pullReference is mds.maybePreemptiveReplicate's threshold logic as it
// was before the pull rule moved into traffic control, with the
// controller's NoteForward it called, less the cache check, which stays
// in mds. A nil reference is traffic control off.
type pullReference struct {
	threshold float64
	fwd       map[namespace.InodeID]metrics.Decay
}

func (r *pullReference) pull(now sim.Time, ino *namespace.Inode, update bool) bool {
	if r == nil || r.threshold <= 0 || update {
		return false
	}
	d := r.fwd[ino.ID]
	d.Add(now, partition.PopHalfLife, 1)
	r.fwd[ino.ID] = d
	return d.Peek(now, partition.PopHalfLife) >= r.threshold
}

// TestMovedRulesMatchInlineChecks holds the lease and pull rules to the
// inline checks they replaced, answer by answer and forward counter by
// forward counter, over the popularity paths, reads and updates,
// touched and untouched records, the pull threshold off and on, and
// leases off and on. Each step is one access of the record at the
// authority (when the path adds to it) and one forward of it elsewhere.
func TestMovedRulesMatchInlineChecks(t *testing.T) {
	_, homes := buildTree(t)
	ino := homes[0].Child(0)
	outcomes := map[string]int{}
	for _, path := range popPaths {
		for _, update := range []bool{false, true} {
			for _, touched := range []bool{false, true} {
				for _, pullAt := range []float64{0, 30} {
					for _, leases := range []bool{false, true} {
						label := fmt.Sprintf("%s/update=%t/touched=%t/pull-at=%v/leases=%t", path.name, update, touched, pullAt, leases)
						tmpl := &TrafficControl{ReplicateThreshold: 300, PreemptiveThreshold: pullAt}
						tc := tmpl.ForCluster(true, false, leases)
						ref := &pullReference{threshold: pullAt, fwd: map[namespace.InodeID]metrics.Decay{}}
						ino.Tags = namespace.Tags{}
						now := sim.Time(0)
						for i := 0; i < path.steps; i++ {
							now += path.dt
							a := path.add(i)
							if a > 0 && touched {
								partition.Popularity(ino).Add(now, partition.PopHalfLife, a)
							}
							granted := tc.Grant(now, ino, update)
							if want := grantReference(leases, update, now, ino); granted != want {
								t.Fatalf("%s step %d: grant %t, inline check %t", label, i, granted, want)
							}
							outcomes[fmt.Sprintf("grant=%t", granted)]++
							if a == 0 {
								continue
							}
							got, want := tc.Pull(now, ino, update), ref.pull(now, ino, update)
							if got != want || tc.Forwards()[ino.ID] != ref.fwd[ino.ID] {
								t.Fatalf("%s step %d: pull %t (count %+v), inline check %t (count %+v)",
									label, i, got, tc.Forwards()[ino.ID], want, ref.fwd[ino.ID])
							}
							outcomes[fmt.Sprintf("pull=%t", got)]++
						}
					}
				}
			}
		}
	}
	for _, o := range []string{"grant=false", "grant=true", "pull=false", "pull=true"} {
		if outcomes[o] == 0 {
			t.Errorf("no case answered %s: the paths miss a branch", o)
		}
	}
}

// TestOnlyTrafficControlWritesReplicatedAll holds the hot-metadata
// policy to its one owner. Outside internal/core, only the checkpoint
// restore of the tag block (internal/partition/snapshot.go) sets or
// clears ReplicatedAll; no non-test file reads a popularity counter
// (Peek or Value on Tags.Pop or partition.Popularity); and only the
// config plumbing (internal/plan/keys.go, internal/endure/file.go)
// reads a traffic-control or lease-grant threshold.
func TestOnlyTrafficControlWritesReplicatedAll(t *testing.T) {
	root := filepath.Join("..", "..")
	core := filepath.Join("internal", "core")
	tagWriters := map[string]bool{filepath.Join("internal", "partition", "snapshot.go"): true}
	plumbing := map[string]bool{filepath.Join("internal", "plan", "keys.go"): true, filepath.Join("internal", "endure", "file.go"): true}
	thresholds := map[string]bool{"ReplicateThreshold": true, "PreemptiveThreshold": true, "DirThreshold": true, "GrantPopularity": true}
	var writers, popReads, thresholdReads int
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		inCore := filepath.Dir(rel) == core
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if ok && thresholds[sel.Sel.Name] {
				thresholdReads++
				if !inCore && !plumbing[rel] {
					t.Errorf("%s reads %s; traffic control decides on it", rel, sel.Sel.Name)
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok = call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; {
			case name == "Set" && len(call.Args) > 0 && mentions(call.Args[0], "ReplicatedAll"):
				writers++
				if !inCore && !tagWriters[rel] {
					t.Errorf("%s writes ReplicatedAll; traffic control owns it", rel)
				}
			case (name == "Peek" || name == "Value") && (mentions(sel.X, "Pop") || mentions(sel.X, "Popularity")):
				popReads++
				if !inCore {
					t.Errorf("%s reads a popularity counter; traffic control decides on it", rel)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if writers == 0 || popReads == 0 || thresholdReads == 0 {
		t.Fatalf("found %d writers of ReplicatedAll, %d popularity reads and %d threshold reads: the scan is broken",
			writers, popReads, thresholdReads)
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
