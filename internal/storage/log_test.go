package storage

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

// contains reports whether the log holds a record of id.
func (l *BoundedLog) contains(id namespace.InodeID) bool { return l.newest[l.slot(id)] != 0 }

// refLog is the count model the index replaced: a ring and, per inode,
// how many of its records the ring holds.
type refLog struct {
	ring  []namespace.InodeID // oldest first
	cap   int
	count map[namespace.InodeID]int
}

func (r *refLog) append(id namespace.InodeID) (tierWrite bool) {
	if len(r.ring) == r.cap {
		old := r.ring[0]
		r.ring = r.ring[1:]
		if r.count[old]--; r.count[old] == 0 {
			delete(r.count, old)
			tierWrite = true
		}
	}
	r.ring = append(r.ring, id)
	r.count[id]++
	return tierWrite
}

func (r *refLog) distinct() []namespace.InodeID {
	var out []namespace.InodeID
	seen := map[namespace.InodeID]bool{}
	for _, id := range r.ring {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// checkIndex holds the index to the ring: every occupied slot names a
// record in the window that is its inode's newest and is found by its
// probe, one slot per distinct inode, none marked seen. Check must
// agree, and leave no slot marked.
func checkIndex(t *testing.T, l *BoundedLog, what string) {
	t.Helper()
	if err := l.Check(); err != nil {
		t.Fatalf("%s: Check: %v", what, err)
	}
	newest := map[namespace.InodeID]int{}
	for k := 0; k < l.n; k++ {
		pos := (l.head + k) % l.capacity
		newest[l.ring[pos]] = pos
	}
	occupied := 0
	for i, p := range l.newest {
		if p == 0 {
			continue
		}
		occupied++
		if p < 0 || int(p) > l.capacity {
			t.Fatalf("%s: slot %d holds %d", what, i, p)
		}
		id := l.ring[p-1]
		if pos, ok := newest[id]; !ok || pos != int(p-1) || l.slot(id) != i {
			t.Fatalf("%s: slot %d names position %d of inode %d, whose newest is %d (held %v), probe %d", what, i, p-1, id, pos, ok, l.slot(id))
		}
	}
	if occupied != len(newest) || l.ids != occupied {
		t.Fatalf("%s: %d slots occupied, %d counted, %d inodes in the log", what, occupied, l.ids, len(newest))
	}
	if len(l.newest) < 2*l.capacity || len(l.newest)&(len(l.newest)-1) != 0 {
		t.Fatalf("%s: %d slots for %d records", what, len(l.newest), l.capacity)
	}
}

// roundTrip checkpoints s and restores it onto a fresh store of the
// same config.
func roundTrip(t *testing.T, s *Store, cfg Config) *Store {
	t.Helper()
	w := snap.NewWriter()
	snap.Encoder(w).Section("store", s.Snap)
	r, err := snap.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, dec := New(sim.NewEngine(), cfg), snap.Decoder(r)
	if dec.Section("store", got.Snap); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	return got
}

// TestBoundedLogMatchesCountModel appends seeded random IDs to logs of
// every capacity from 1 to 64, from ID ranges that make repeats rare and
// common, and holds each to the count model: the same tier write on
// every append and the same Distinct, oldest first. Halfway a
// checkpoint is restored onto a fresh store, and both go on appending
// the same IDs to the same results.
func TestBoundedLogMatchesCountModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for capacity := 1; capacity <= 64; capacity++ {
		for _, ids := range []int{2, capacity, 4 * capacity} {
			cfg := Config{LogCapacity: capacity}
			s := New(sim.NewEngine(), cfg)
			ref := &refLog{cap: capacity, count: map[namespace.InodeID]int{}}
			var restored *Store
			for step := 0; step < 20*capacity+40; step++ {
				if step == 10*capacity+20 {
					restored = roundTrip(t, s, cfg)
					checkIndex(t, restored.log, "restored")
				}
				id := namespace.InodeID(1 + rng.Intn(ids))
				want := ref.append(id)
				if got := s.log.Append(id); got != want {
					t.Fatalf("capacity %d, step %d: Append(%d) tier write %v, model %v", capacity, step, id, got, want)
				}
				if restored != nil {
					if got := restored.log.Append(id); got != want {
						t.Fatalf("capacity %d, step %d, restored: Append(%d) tier write %v, model %v", capacity, step, id, got, want)
					}
				}
				if step%7 == 0 {
					checkIndex(t, s.log, "appending")
					if got, want := s.log.Distinct(), ref.distinct(); !slices.Equal(got, want) {
						t.Fatalf("capacity %d, step %d: Distinct %v, model %v", capacity, step, got, want)
					}
					checkIndex(t, s.log, "after Distinct")
				}
			}
			for _, l := range []*BoundedLog{s.log, restored.log} {
				if got, want := l.Distinct(), ref.distinct(); !slices.Equal(got, want) {
					t.Fatalf("capacity %d: Distinct %v, model %v", capacity, got, want)
				}
			}
		}
	}
}

// TestLogAppendZeroAlloc: the index is made with the log, so no append
// allocates, whatever IDs arrive.
func TestLogAppendZeroAlloc(t *testing.T) {
	l := NewBoundedLog(1000)
	id := namespace.InodeID(0)
	allocs := testing.AllocsPerRun(10_000, func() {
		id = id*2862933555777941757 + 3037000493
		l.Append(id % 5000)
	})
	if allocs != 0 {
		t.Fatalf("Append allocated %.2f times per call, want 0", allocs)
	}
}

// TestLogCheckZeroAlloc: checking a full log against its index
// allocates nothing.
func TestLogCheckZeroAlloc(t *testing.T) {
	l := NewBoundedLog(1000)
	for id := namespace.InodeID(0); id < 3000; id++ {
		l.Append(id * 7 % 1300)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := l.Check(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Check allocated %.2f times per call, want 0", allocs)
	}
}

// TestLogCheckFindsPlantedFaults: an index that lost a slot, names an
// older record than the newest, holds a slot no record reaches or
// miscounts its inodes fails Check, which leaves no slot marked seen.
func TestLogCheckFindsPlantedFaults(t *testing.T) {
	fill := func() *BoundedLog {
		l := NewBoundedLog(8)
		for _, id := range []namespace.InodeID{1, 2, 3, 2, 4, 5, 1, 6, 7, 2} {
			l.Append(id)
		}
		return l
	}
	for _, tc := range []struct {
		name, want string
		plant      func(l *BoundedLog)
	}{
		{"lost slot", "no index slot", func(l *BoundedLog) { l.newest[l.slot(4)] = 0 }},
		{"older record", "its slot names record", func(l *BoundedLog) {
			// 2's records sit at window offsets 1 and 7.
			l.newest[l.slot(2)] = int32((l.head+1)%l.capacity + 1)
		}},
		{"miscount", "index counts", func(l *BoundedLog) { l.ids++ }},
		{"stray slot", "name no inode", func(l *BoundedLog) {
			i := l.slot(99)
			l.newest[i] = l.newest[l.slot(5)]
			l.ids++
		}},
	} {
		l := fill()
		if err := l.Check(); err != nil {
			t.Fatalf("%s: clean log: %v", tc.name, err)
		}
		tc.plant(l)
		if err := l.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want %q", tc.name, err, tc.want)
		}
		for i, p := range l.newest {
			if p < 0 {
				t.Fatalf("%s: slot %d left marked seen", tc.name, i)
			}
		}
	}
}

// TestNewBoundedLogRefusesCapacity: a capacity past MaxLogCapacity
// panics before anything is allocated.
func TestNewBoundedLogRefusesCapacity(t *testing.T) {
	for _, c := range []int{0, MaxLogCapacity + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBoundedLog(%d) did not panic", c)
				}
			}()
			NewBoundedLog(c)
		}()
	}
}

// BenchmarkLogAppend measures a full log's append: expel the oldest
// record, decide its tier write, index the new one. IDs repeat in a
// window three times the log, as an MDS's updates do.
func BenchmarkLogAppend(b *testing.B) {
	const capacity = 4000
	l := NewBoundedLog(capacity)
	ids := make([]namespace.InodeID, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = namespace.InodeID(1 + rng.Intn(3*capacity))
	}
	for _, id := range ids[:capacity] {
		l.Append(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(ids[i&(len(ids)-1)])
	}
}
