package partition_test

import (
	"fmt"
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/partition"
	"dynmds/internal/sim"
)

// TestTagsAllocs pins what touching an inode's tags allocates: nothing,
// the first touch included — a popularity bump, a peek, an authority
// memo write, a replica mark, and the subtree strategy's authority
// lookup on a file whose parent was never tagged (it reads the parent's
// hashed-directory flag before the table memoizes the chain).
func TestTagsAllocs(t *testing.T) {
	const runs = 100
	// fresh builds /usr/d<i>/f for i in 0..runs (AllocsPerRun adds a
	// warm-up call) and a subtree partition giving usr to node 1: no
	// directory or file has been touched yet.
	fresh := func() (files []*namespace.Inode, usr *namespace.Inode, dyn *partition.Subtree) {
		empty, _ := namespace.NewBuilder().Freeze()
		tr := namespace.NewOverlay(empty)
		usr, err := tr.Mkdir(tr.Root, "usr")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= runs; i++ {
			d, err := tr.Mkdir(usr, fmt.Sprintf("d%d", i))
			if err != nil {
				t.Fatal(err)
			}
			f, err := tr.Create(d, "f")
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		dyn = partition.NewStaticSubtree(4, tr, 0)
		if err := dyn.Table.Delegate(usr, 1); err != nil {
			t.Fatal(err)
		}
		return files, usr, dyn
	}

	now := sim.Time(0)
	touches := []struct {
		name  string
		touch func(dyn *partition.Subtree, f *namespace.Inode)
	}{
		{"Pop bump", func(_ *partition.Subtree, f *namespace.Inode) { partition.Popularity(f).Add(now, sim.Second, 1) }},
		{"Pop peek", func(_ *partition.Subtree, f *namespace.Inode) { _ = partition.TagsOf(f).Pop.Peek(now, sim.Second) }},
		{"authority memo", func(dyn *partition.Subtree, f *namespace.Inode) {
			if dyn.Table.Authority(f) != 1 {
				t.Fatal("authority moved")
			}
		}},
		{"SetReplica", func(_ *partition.Subtree, f *namespace.Inode) { partition.TagsOf(f).SetReplica(2) }},
		{"subtree authority", func(dyn *partition.Subtree, f *namespace.Inode) {
			if dyn.Authority(f) != 1 {
				t.Fatal("authority moved")
			}
		}},
	}
	for _, tc := range touches {
		files, usr, dyn := fresh()
		next := 0
		if got := testing.AllocsPerRun(runs, func() { tc.touch(dyn, files[next]); next++ }); got != 0 {
			t.Errorf("first %s on an inode allocated %v times, want 0", tc.name, got)
		}
		got := testing.AllocsPerRun(runs, func() {
			now += 100 * sim.Millisecond
			// A moved epoch makes every memo stale, so Authority rewrites
			// the chain's memos instead of reading them.
			if err := dyn.Table.Delegate(usr, 1); err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				tc.touch(dyn, f)
			}
		})
		if got != 0 {
			t.Errorf("%s on a touched inode allocated %v times per pass, want 0", tc.name, got)
		}
	}
}
