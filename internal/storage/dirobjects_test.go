package storage

import (
	"fmt"
	"testing"

	"dynmds/internal/dirstore"
	"dynmds/internal/namespace"
	"dynmds/internal/osd"
	"dynmds/internal/sim"
)

// entries counts a directory object's records.
func entries(t *dirstore.Tree) int {
	n := 0
	t.Range(func(dirstore.Record) bool { n++; return true })
	return n
}

func TestDirObjectsLifecycle(t *testing.T) {
	d := NewDirObjects(8)
	if len(d.trees) != 0 {
		t.Fatal("fresh index not empty")
	}
	const dir = namespace.InodeID(7)
	for i := 0; i < 20; i++ {
		d.Insert(dir, dirstore.Record{Name: fmt.Sprintf("e%02d", i)})
	}
	if len(d.trees) != 1 {
		t.Fatalf("objects = %d", len(d.trees))
	}
	obj, ok := d.Object(dir)
	if !ok || entries(obj) != 20 {
		t.Fatalf("object state: %v %v", ok, obj)
	}
	if d.NodesWritten == 0 || d.Updates != 20 {
		t.Fatalf("accounting: written=%d updates=%d", d.NodesWritten, d.Updates)
	}
	d.Delete(dir, "e00")
	if entries(obj) != 19 {
		t.Fatalf("live object holds %d entries after a delete, want 19", entries(obj))
	}
	// Deleting a missing entry neither counts nor panics.
	before := d.Updates
	d.Delete(dir, "missing")
	if d.Updates != before {
		t.Fatal("phantom delete counted")
	}
	// Bad records are ignored.
	d.Insert(dir, dirstore.Record{})
	if d.Updates != before {
		t.Fatal("empty-name insert counted")
	}
	if _, ok := d.Object(999); ok {
		t.Fatal("object of unknown dir")
	}
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
	if pool.Stats.Reads != 2 {
		t.Fatalf("pool reads = %d", pool.Stats.Reads)
	}
	if pool.Stats.Writes == 0 {
		t.Fatal("log append did not reach the pool")
	}
	// The local disks saw nothing.
	if s.readDisk.Submitted != 0 {
		t.Fatal("local read disk used in pool mode")
	}
	// The bounded log still tracks the working set locally.
	if s.log.live[13] == 0 {
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
