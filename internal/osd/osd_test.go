package osd

import (
	"fmt"
	"testing"
	"testing/quick"

	"dynmds/internal/sim"
)

// The placement changes below are for tests: a run places on equally
// weighted devices that never fail.

// AddDevice grows the cluster by one device of the given weight,
// returning its index. Existing objects move only onto the new device
// (minimal movement).
func (p *Placement) AddDevice(weight float64) int {
	if weight <= 0 {
		weight = 1
	}
	p.weights = append(p.weights, weight)
	return len(p.weights) - 1
}

// SetWeight adjusts a device's weight (0 drains it).
func (p *Placement) SetWeight(dev int, weight float64) error {
	if dev < 0 || dev >= len(p.weights) {
		return fmt.Errorf("osd: device %d out of range", dev)
	}
	if weight < 0 {
		weight = 0
	}
	p.weights[dev] = weight
	return nil
}

// Primary returns the object's primary device.
func (p *Placement) Primary(obj ObjectID) int {
	best, bestScore := 0, -1.0
	for d := range p.weights {
		if s := p.score(obj, d); s > bestScore {
			best, bestScore = d, s
		}
	}
	return best
}

// SetDown marks a device failed or recovered.
func (p *Pool) SetDown(dev int, down bool) error {
	if dev < 0 || dev >= len(p.devs) {
		return fmt.Errorf("osd: device %d out of range", dev)
	}
	p.down[dev] = down
	return nil
}

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

func TestPlacementWeights(t *testing.T) {
	p, _ := NewPlacement(2)
	if err := p.SetWeight(1, 3); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	for obj := ObjectID(0); obj < 20000; obj++ {
		counts[p.Primary(obj)]++
	}
	// Device 1 has 3x the weight: expect ~75% of objects.
	frac := float64(counts[1]) / 20000
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("weighted share = %.3f, want ~0.75", frac)
	}
	if err := p.SetWeight(9, 1); err == nil {
		t.Fatal("out-of-range weight accepted")
	}
}

// The paper's key requirement: adding a device must move only ~1/(n+1)
// of objects — probabilistically balanced with minimal migration.
func TestPlacementMinimalMovement(t *testing.T) {
	const n = 9
	p, _ := NewPlacement(n)
	const objs = 20000
	before := make([]int, objs)
	for obj := 0; obj < objs; obj++ {
		before[obj] = p.Primary(ObjectID(obj))
	}
	newDev := p.AddDevice(1)
	moved, movedElsewhere := 0, 0
	for obj := 0; obj < objs; obj++ {
		after := p.Primary(ObjectID(obj))
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
		r := p.Replicas(ObjectID(obj), 3)
		if len(r) != 3 {
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
	// Clamped when r exceeds live devices.
	small, _ := NewPlacement(2)
	if got := small.Replicas(7, 5); len(got) != 2 {
		t.Fatalf("replicas = %v", got)
	}
}

func TestDrainedDeviceReceivesNothing(t *testing.T) {
	p, _ := NewPlacement(4)
	_ = p.SetWeight(2, 0)
	for obj := ObjectID(0); obj < 5000; obj++ {
		for _, d := range p.Replicas(obj, 2) {
			if d == 2 {
				t.Fatal("drained device selected")
			}
		}
	}
}

func TestPoolReadWrite(t *testing.T) {
	eng := sim.NewEngine()
	p, err := NewPool(eng, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var readAt, wroteAt sim.Time
	p.Read(42, 5, func() { readAt = eng.Now() })
	p.Write(42, func() { wroteAt = eng.Now() })
	eng.Run()
	if want := readLatency + 5*readPerRecord; readAt != want {
		t.Fatalf("read completed at %v, want %v", readAt, want)
	}
	if wroteAt == 0 {
		t.Fatal("write never completed")
	}
	if p.Stats.Reads != 1 || p.Stats.Writes != 2 { // 2 replicas written
		t.Fatalf("stats = %+v", p.Stats)
	}
}

func TestPoolFailoverRead(t *testing.T) {
	eng := sim.NewEngine()
	p, err := NewPool(eng, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	const obj = ObjectID(99)
	primary := p.placement.Primary(obj)
	if err := p.SetDown(primary, true); err != nil {
		t.Fatal(err)
	}
	completed := false
	p.Read(obj, 1, func() { completed = true })
	eng.Run()
	if !completed {
		t.Fatal("read did not fail over")
	}
	if p.Stats.FailoverReads != 1 {
		t.Fatalf("failover reads = %d", p.Stats.FailoverReads)
	}
	// All replicas down: the read is dropped and counted.
	for _, d := range p.placement.Replicas(obj, 2) {
		_ = p.SetDown(d, true)
	}
	p.Read(obj, 1, func() { t.Fatal("read completed with all replicas down") })
	eng.Run()
	if p.Stats.UnplacedErrors != 1 {
		t.Fatalf("unplaced errors = %d", p.Stats.UnplacedErrors)
	}
	// Write with all replicas down is also dropped.
	p.Write(obj, func() { t.Fatal("write completed with all replicas down") })
	eng.Run()
	if p.Stats.UnplacedErrors != 2 {
		t.Fatalf("unplaced errors = %d", p.Stats.UnplacedErrors)
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
