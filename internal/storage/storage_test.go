package storage

import (
	"testing"
	"testing/quick"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

func testConfig() Config {
	return Config{
		ReadLatency:      1000,
		ReadPerRecord:    10,
		LogAppendLatency: 50,
		LogCapacity:      4,
	}
}

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
	if doneAt != 1010 {
		t.Fatalf("read completed at %v, want 1010", doneAt)
	}
	if s.Stats.InodeReads != 1 || s.Stats.RecordsRead != 1 {
		t.Fatalf("stats = %+v", s.Stats)
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
	if doneAt != 1000+20*10 {
		t.Fatalf("dir read completed at %v, want 1200", doneAt)
	}
	if s.Stats.DirReads != 1 || s.Stats.RecordsRead != 20 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	// Degenerate record count clamps to 1.
	s.ReadDirCall(2, 0, run, nil, nil)
	eng.Run()
	if s.Stats.RecordsRead != 21 {
		t.Fatalf("records = %d", s.Stats.RecordsRead)
	}
}

func TestReadsQueueOnOneDisk(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, testConfig())
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		s.ReadInodeCall(namespace.InodeID(i+1), run, func() { completions = append(completions, eng.Now()) }, nil)
	}
	if s.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d", s.QueueDepth())
	}
	eng.Run()
	want := []sim.Time{1010, 2020, 3030}
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
	if s.Stats.LogAppends != 9 {
		t.Fatalf("log appends = %d", s.Stats.LogAppends)
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
	if !l.Contains(1) || !l.Contains(2) {
		t.Fatal("log missing entries")
	}
	l.Append(3) // expels 1
	if l.Contains(1) {
		t.Fatal("expelled entry still contained")
	}
	if l.Len() != 2 || l.Cap() != 2 {
		t.Fatalf("len/cap = %d/%d", l.Len(), l.Cap())
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
		if l.Len() > l.Cap() {
			return false
		}
		d := l.Distinct()
		seen := map[namespace.InodeID]bool{}
		for _, id := range d {
			if seen[id] || !l.Contains(id) {
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
	if c.LogCapacity != 1000 || c.ReadLatency <= 0 {
		t.Fatalf("default config = %+v", c)
	}
	eng := sim.NewEngine()
	s := New(eng, Config{LogCapacity: 0, ReadLatency: 1})
	s.ReadInodeCall(1, run, nil, nil)
	eng.Run() // must not panic with clamped log capacity
}
