package storage

import (
	"testing"
	"testing/quick"

	"dynmds/internal/namespace"
	"dynmds/internal/osd"
	"dynmds/internal/sim"
)

func testConfig() Config { return Config{LogCapacity: 4} }

// run is the completion the tests hand the store: the payload is the
// closure to call, or nil when only the accounting is under test.
func run(done, _ any) {
	if done != nil {
		done.(func())()
	}
}

func TestReadInodeLatency(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, testConfig())
	var doneAt sim.Time
	s.ReadInodeCall(1, run, func() { doneAt = eng.Now() }, nil)
	eng.Run()
	if doneAt != ReadLatency+ReadPerRecord {
		t.Fatalf("read completed at %v, want %v", doneAt, ReadLatency+ReadPerRecord)
	}
	if busy := s.readDisk.BusyTime; busy != ReadLatency+ReadPerRecord {
		t.Fatalf("read disk busy %v, want %v", busy, ReadLatency+ReadPerRecord)
	}
}

func TestReadDirEmbeddedCost(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, testConfig())
	var doneAt sim.Time
	s.ReadDirCall(2, 20, run, func() { doneAt = eng.Now() }, nil)
	eng.Run()
	// One positioning cost + 20 record transfers: far cheaper than 20
	// individual reads — that is the embedded-inode advantage.
	if want := ReadLatency + 20*ReadPerRecord; doneAt != want {
		t.Fatalf("dir read completed at %v, want %v", doneAt, want)
	}
	if busy, want := s.readDisk.BusyTime, ReadLatency+20*ReadPerRecord; busy != want {
		t.Fatalf("read disk busy %v, want %v", busy, want)
	}
	// Degenerate record count clamps to 1.
	s.ReadDirCall(2, 0, run, nil, nil)
	eng.Run()
	if busy, want := s.readDisk.BusyTime, 2*ReadLatency+21*ReadPerRecord; busy != want {
		t.Fatalf("read disk busy %v, want %v", busy, want)
	}
}

func TestReadsQueueOnOneDisk(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, testConfig())
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		s.ReadInodeCall(namespace.InodeID(i+1), run, func() { completions = append(completions, eng.Now()) }, nil)
	}
	eng.Run()
	one := ReadLatency + ReadPerRecord
	want := []sim.Time{one, 2 * one, 3 * one}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v, want %v", completions, want)
		}
	}
}

func TestCommitAndTierWrites(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, testConfig()) // log capacity 4
	for i := 1; i <= 4; i++ {
		s.CommitCall(namespace.InodeID(i), run, nil, nil)
	}
	if s.Stats.TierWrites != 0 {
		t.Fatalf("tier writes before overflow = %d", s.Stats.TierWrites)
	}
	s.CommitCall(namespace.InodeID(5), run, nil, nil) // expels 1 -> tier write
	if s.Stats.TierWrites != 1 {
		t.Fatalf("tier writes = %d, want 1", s.Stats.TierWrites)
	}
	// Re-committing an inode already in the log means its expelled older
	// record is superseded: no tier write.
	s.CommitCall(namespace.InodeID(5), run, nil, nil) // expels 2 -> tier write (distinct inode)
	s.CommitCall(namespace.InodeID(5), run, nil, nil) // expels 3 -> tier write
	s.CommitCall(namespace.InodeID(5), run, nil, nil) // expels 4 -> tier write
	s.CommitCall(namespace.InodeID(5), run, nil, nil) // expels oldest 5, newer 5s remain -> no tier write
	if s.Stats.TierWrites != 4 {
		t.Fatalf("tier writes = %d, want 4", s.Stats.TierWrites)
	}
	eng.Run()
	if busy := s.logDisk.BusyTime; busy != 9*LogAppendLatency {
		t.Fatalf("log disk busy %v, want 9 appends' %v", busy, 9*LogAppendLatency)
	}
}

func TestWorkingSet(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, testConfig())
	ids := []namespace.InodeID{7, 8, 7, 9}
	for _, id := range ids {
		s.CommitCall(id, run, nil, nil)
	}
	ws := s.WorkingSet()
	want := []namespace.InodeID{7, 8, 9}
	if len(ws) != len(want) {
		t.Fatalf("working set = %v", ws)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("working set = %v, want %v", ws, want)
		}
	}
	eng.Run()
}

func TestBoundedLogContains(t *testing.T) {
	l := NewBoundedLog(2)
	l.Append(1)
	l.Append(2)
	if !l.contains(1) || !l.contains(2) {
		t.Fatal("log missing entries")
	}
	l.Append(3) // expels 1
	if l.contains(1) {
		t.Fatal("expelled entry still contained")
	}
	if l.n != 2 || l.capacity != 2 {
		t.Fatalf("len/cap = %d/%d", l.n, l.capacity)
	}
}

// Property: the log never exceeds capacity; Distinct() has no duplicates
// and contains exactly the live set.
func TestBoundedLogProperties(t *testing.T) {
	f := func(appends []uint8) bool {
		l := NewBoundedLog(8)
		for _, a := range appends {
			l.Append(namespace.InodeID(a % 16))
		}
		if l.n > l.capacity {
			return false
		}
		d := l.Distinct()
		seen := map[namespace.InodeID]bool{}
		for _, id := range d {
			if seen[id] || !l.contains(id) {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(1000)
	if c.LogCapacity != 1000 || c.Pool != nil {
		t.Fatalf("default config = %+v", c)
	}
	eng := sim.NewEngine()
	s := New(eng, Config{LogCapacity: 0})
	s.ReadInodeCall(1, run, nil, nil)
	eng.Run() // must not panic with clamped log capacity
}

func TestStoreSharedPoolRouting(t *testing.T) {
	eng := sim.NewEngine()
	pool, err := osd.NewPool(eng, osd.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Pool = pool
	cfg.PoolOwner = 3
	s := New(eng, cfg)

	var readDone, dirDone, commitDone bool
	s.ReadInodeCall(11, run, func() { readDone = true }, nil)
	s.ReadDirCall(12, 5, run, func() { dirDone = true }, nil)
	s.CommitCall(13, run, func() { commitDone = true }, nil)
	eng.Run()
	if !readDone || !dirDone || !commitDone {
		t.Fatalf("callbacks: %v %v %v", readDone, dirDone, commitDone)
	}
	// The pool served all three: the local disks saw nothing.
	if s.readDisk.Submitted != 0 || s.logDisk.Submitted != 0 {
		t.Fatal("local disk used in pool mode")
	}
	// The bounded log still tracks the working set locally.
	if !s.log.contains(13) {
		t.Fatal("log lost the commit record")
	}
}

func TestReadUtilizationLocalMode(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, testConfig())
	s.ReadInodeCall(1, run, nil, nil)
	eng.RunUntil(2 * (ReadLatency + ReadPerRecord))
	if u := float64(s.readDisk.BusyTime) / float64(eng.Now()); u <= 0.4 || u > 0.6 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}
