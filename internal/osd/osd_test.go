package osd

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dynmds/internal/sim"
)

func TestPlacementDeterministic(t *testing.T) {
	a, _ := NewPlacement(16)
	b, _ := NewPlacement(16)
	for obj := ObjectID(0); obj < 1000; obj++ {
		if a.Primary(obj) != b.Primary(obj) {
			t.Fatal("placement not deterministic")
		}
	}
}

func TestPlacementBalance(t *testing.T) {
	const n = 10
	p, _ := NewPlacement(n)
	counts := make([]int, n)
	const objs = 20000
	for obj := ObjectID(0); obj < objs; obj++ {
		counts[p.Primary(obj)]++
	}
	mean := float64(objs) / n
	for d, c := range counts {
		if float64(c) < 0.85*mean || float64(c) > 1.15*mean {
			t.Fatalf("device %d holds %d objects, mean %.0f: %v", d, c, mean, counts)
		}
	}
}

// The paper's key requirement: adding a device must move only ~1/(n+1)
// of objects — probabilistically balanced with minimal migration.
func TestPlacementMinimalMovement(t *testing.T) {
	const n = 9
	p, _ := NewPlacement(n)
	grown, _ := NewPlacement(n + 1)
	const objs = 20000
	before := make([]int, objs)
	for obj := 0; obj < objs; obj++ {
		before[obj] = p.Primary(ObjectID(obj))
	}
	newDev := n
	moved, movedElsewhere := 0, 0
	for obj := 0; obj < objs; obj++ {
		after := grown.Primary(ObjectID(obj))
		if after != before[obj] {
			moved++
			if after != newDev {
				movedElsewhere++
			}
		}
	}
	want := float64(objs) / float64(n+1)
	if float64(moved) < 0.8*want || float64(moved) > 1.2*want {
		t.Fatalf("moved %d objects, want ~%.0f", moved, want)
	}
	if movedElsewhere != 0 {
		t.Fatalf("%d objects moved between old devices", movedElsewhere)
	}
}

func TestReplicasDistinctAndStable(t *testing.T) {
	p, _ := NewPlacement(8)
	f := func(obj uint64) bool {
		r := p.Replicas(nil, ObjectID(obj), 3)
		if len(r) != 3 {
			return false
		}
		// The top three of a full ranking by score.
		all := []int{0, 1, 2, 3, 4, 5, 6, 7}
		sort.Slice(all, func(i, j int) bool { return score(ObjectID(obj), all[i]) > score(ObjectID(obj), all[j]) })
		if !slices.Equal(r, all[:3]) {
			return false
		}
		if r[0] != p.Primary(ObjectID(obj)) {
			return false
		}
		seen := map[int]bool{}
		for _, d := range r {
			if d < 0 || d >= 8 || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Clamped when r exceeds the devices.
	small, _ := NewPlacement(2)
	if got := small.Replicas(nil, 7, 5); len(got) != 2 {
		t.Fatalf("replicas = %v", got)
	}
}

func TestPoolReadWrite(t *testing.T) {
	eng := sim.NewEngine()
	p, err := NewPool(eng, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var readAt, wroteAt sim.Time
	const readCost = 8 * sim.Millisecond
	p.Read(42, readCost, func(any, any) { readAt = eng.Now() }, nil, nil)
	p.Write(42, func(any, any) { wroteAt = eng.Now() }, nil, nil)
	eng.Run()
	if want := sim.Time(readCost); readAt != want {
		t.Fatalf("read completed at %v, want %v", readAt, want)
	}
	if wroteAt == 0 {
		t.Fatal("write never completed")
	}
	// The read went to the primary, the write to both replicas.
	replicas := p.placement.Replicas(nil, 42, 2)
	if replicas[0] != p.placement.Primary(42) {
		t.Fatalf("replicas %v do not start at the primary %d", replicas, p.placement.Primary(42))
	}
	for d, dev := range p.devs {
		want := uint64(0)
		switch d {
		case replicas[0]:
			want = 2
		case replicas[1]:
			want = 1
		}
		if dev.Completed != want {
			t.Fatalf("device %d served %d requests, want %d", d, dev.Completed, want)
		}
	}
}

// ioDone is a continuation for TestPoolIOAllocFree that allocates
// nothing itself.
func ioDone(a, _ any) { *a.(*int)++ }

// TestPoolIOAllocFree pins a warm pool's reads and writes to zero
// allocations: the continuation rides the device jobs, and a write's
// replica countdown is a pooled carrier.
func TestPoolIOAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	p, err := NewPool(eng, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	io := func() {
		for obj := ObjectID(0); obj < 16; obj++ {
			p.Read(obj, sim.Millisecond, ioDone, &done, nil)
			p.Write(LogObject(int(obj)), ioDone, &done, nil)
		}
		eng.Run()
	}
	io()
	if allocs := testing.AllocsPerRun(20, io); allocs != 0 {
		t.Fatalf("%.1f allocations per 16 reads and 16 writes, want 0", allocs)
	}
	if want := 32 * 22; done != want {
		t.Fatalf("%d continuations ran, want %d", done, want)
	}
	if n := p.writes.Lent(); n != 0 {
		t.Fatalf("%d write carriers still lent", n)
	}
}

func TestPoolRejectsEmpty(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewPool(eng, Config{NumOSDs: 0}); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewPlacement(0); err == nil {
		t.Fatal("empty placement accepted")
	}
}

func TestObjectIDNamespaces(t *testing.T) {
	if DirObject(5) == LogObject(5) {
		t.Fatal("dir and log object IDs collide")
	}
}

func BenchmarkPrimary(b *testing.B) {
	p, _ := NewPlacement(100)
	for i := 0; i < b.N; i++ {
		_ = p.Primary(ObjectID(i))
	}
}
