package storage

import (
	"sort"

	"dynmds/internal/dirstore"
	"dynmds/internal/namespace"
)

// DirObjects models the long-term tier's per-directory objects as
// copy-on-write B-trees (§4.6). Objects are materialised lazily, on the
// first update to a directory; reads in the simulation are costed by
// the latency model, so the trees' job is to account the *incremental
// write amplification* of metadata updates (B-tree nodes rewritten per
// create/unlink/rename) and to provide snapshots.
type DirObjects struct {
	order int
	trees map[namespace.InodeID]*dirstore.Tree

	// NodesWritten accumulates B-tree nodes rewritten by updates — the
	// long-term tier's write amplification.
	NodesWritten uint64
	// Updates counts directory-object mutations.
	Updates uint64
}

// NewDirObjects creates the object index with the given B-tree order.
func NewDirObjects(order int) *DirObjects {
	return &DirObjects{order: order, trees: make(map[namespace.InodeID]*dirstore.Tree)}
}

func (d *DirObjects) tree(dir namespace.InodeID) *dirstore.Tree {
	t, ok := d.trees[dir]
	if !ok {
		t = dirstore.New(d.order)
		d.trees[dir] = t
	}
	return t
}

// Insert records an entry create (or in-place update) in dir's object.
func (d *DirObjects) Insert(dir namespace.InodeID, rec dirstore.Record) {
	w, err := d.tree(dir).Insert(rec)
	if err != nil {
		return
	}
	d.Updates++
	d.NodesWritten += uint64(w)
}

// Delete records an entry removal from dir's object.
func (d *DirObjects) Delete(dir namespace.InodeID, name string) {
	w, ok := d.tree(dir).Delete(name)
	if !ok {
		return
	}
	d.Updates++
	d.NodesWritten += uint64(w)
}

// Object returns the live object for dir, if materialised.
func (d *DirObjects) Object(dir namespace.InodeID) (*dirstore.Tree, bool) {
	t, ok := d.trees[dir]
	return t, ok
}

// ForEach visits every materialised directory object in ascending
// directory-ID order, so iteration is deterministic. The chaos
// consistency checker uses it to cross-check dirstore records against
// the namespace.
func (d *DirObjects) ForEach(fn func(dir namespace.InodeID, t *dirstore.Tree)) {
	ids := make([]namespace.InodeID, 0, len(d.trees))
	for id := range d.trees {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fn(id, d.trees[id])
	}
}
