package storage

import (
	"fmt"
	"testing"

	"dynmds/internal/dirstore"
	"dynmds/internal/namespace"
	"dynmds/internal/osd"
	"dynmds/internal/sim"
)

func TestDirObjectsLifecycle(t *testing.T) {
	d := NewDirObjects(8)
	if d.Len() != 0 {
		t.Fatal("fresh index not empty")
	}
	const dir = namespace.InodeID(7)
	for i := 0; i < 20; i++ {
		d.Insert(dir, dirstore.Record{Name: fmt.Sprintf("e%02d", i)})
	}
	if d.Len() != 1 {
		t.Fatalf("objects = %d", d.Len())
	}
	obj, ok := d.Object(dir)
	if !ok || obj.Len() != 20 {
		t.Fatalf("object state: %v %v", ok, obj)
	}
	if d.NodesWritten == 0 || d.Updates != 20 {
		t.Fatalf("accounting: written=%d updates=%d", d.NodesWritten, d.Updates)
	}
	// Snapshot isolation through the store-level API.
	snap := d.Snapshot(dir)
	d.Delete(dir, "e00")
	if obj.Len() != 19 || snap.Len() != 20 {
		t.Fatalf("snapshot broke: live=%d snap=%d", obj.Len(), snap.Len())
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
	// Snapshot of an unknown directory is nil.
	if d.Snapshot(999) != nil {
		t.Fatal("snapshot of unknown dir")
	}
	if _, ok := d.Object(999); ok {
		t.Fatal("object of unknown dir")
	}
}

func TestStoreSharedPoolRouting(t *testing.T) {
	eng := sim.NewEngine()
	pool, err := osd.NewPool(eng, osd.Config{
		NumOSDs: 4, Replicas: 2,
		ReadLatency: 1000, ReadPerRecord: 10, WriteLatency: 100,
	})
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
	if s.ReadUtilization(eng.Now()) != 0 {
		t.Fatal("local read disk used in pool mode")
	}
	// The bounded log still tracks the working set locally.
	if !s.log.Contains(13) {
		t.Fatal("log lost the commit record")
	}
}

func TestReadUtilizationLocalMode(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, testConfig())
	s.ReadInodeCall(1, run, nil, nil)
	eng.RunUntil(2020) // read takes 1010
	if u := s.ReadUtilization(eng.Now()); u <= 0.4 || u > 0.6 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}
