package namespace

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Builder writes a namespace once, in the form runs read: Mkdir and
// Create append fnode records, Freeze lays them into a Frozen. IDs are
// dense from 1 (the root) in call order and a parent always precedes
// its children, so ascending ID is insertion order — the one fact
// Freeze needs to derive child lists and subtree counts without ever
// holding a pointer tree.
//
// Records accumulate in fixed-size chunks: nothing is re-copied as the
// namespace grows and no size has to be guessed up front. The first
// refusal sticks, as in snap.Codec: later calls append nothing and
// return 0, and Freeze reports it, so a generator checks one error.
type Builder struct {
	chunks            []*builderChunk
	n                 int
	numFiles, numDirs int
	err               error
}

const chunkLen = 1024

// builderChunk holds chunkLen records and, beside them, each record's
// depth — wanted while generating (fsgen bounds nesting), not after.
type builderChunk struct {
	nodes [chunkLen]fnode
	depth [chunkLen]int32
}

// NewBuilder returns a builder holding only the root directory.
func NewBuilder() *Builder {
	b := &Builder{}
	b.push(fnode{mode: 0o755, kind: Dir}, 0)
	return b
}

// Root returns the root directory's ID.
func (b *Builder) Root() InodeID { return rootID }

// Mkdir appends a directory named name under parent and returns its ID.
func (b *Builder) Mkdir(parent InodeID, name string) InodeID {
	return b.add(parent, name, Dir, 0o755)
}

// Create appends a file named name under parent and returns its ID.
func (b *Builder) Create(parent InodeID, name string) InodeID {
	return b.add(parent, name, File, 0o644)
}

// Depth returns the number of ancestors of id (root = 0; 0 for an ID
// the builder did not hand out).
func (b *Builder) Depth(id InodeID) int {
	if !b.has(id) {
		return 0
	}
	i := int(id - 1)
	return int(b.chunks[i/chunkLen].depth[i%chunkLen])
}

func (b *Builder) has(id InodeID) bool { return id >= rootID && int(id) <= b.n }

func (b *Builder) node(id InodeID) *fnode {
	i := int(id - 1)
	return &b.chunks[i/chunkLen].nodes[i%chunkLen]
}

// add makes every check Tree.add makes but the one for a name already
// in the directory, which Freeze makes where the name index is sorted.
// It also refuses the 2³²nd inode: the name index keys are 32 bits.
func (b *Builder) add(parent InodeID, name string, kind Kind, mode Mode) InodeID {
	switch err := validName(name); {
	case b.err != nil:
	case uint64(b.n) >= math.MaxUint32:
		b.err = fmt.Errorf("namespace: %q would be inode %d, past the limit of %d", name, uint64(b.n)+1, uint64(math.MaxUint32))
	case err != nil:
		b.err = err
	case !b.has(parent):
		b.err = fmt.Errorf("namespace: parent %d of %q does not exist", parent, name)
	case b.node(parent).kind != Dir:
		b.err = fmt.Errorf("namespace: %s is not a directory", b.path(parent))
	default:
		b.push(fnode{name: name, parent: parent, mode: mode, kind: kind}, int32(b.Depth(parent)+1))
		return InodeID(b.n)
	}
	return 0
}

func (b *Builder) push(fn fnode, depth int32) {
	i := b.n
	if i%chunkLen == 0 {
		b.chunks = append(b.chunks, new(builderChunk))
	}
	c := b.chunks[i/chunkLen]
	c.nodes[i%chunkLen], c.depth[i%chunkLen] = fn, depth
	b.n++
	if fn.kind == Dir {
		b.numDirs++
	} else {
		b.numFiles++
	}
}

// path returns id's absolute path, for error messages.
func (b *Builder) path(id InodeID) string {
	var parts []string
	for ; id != rootID; id = b.node(id).parent {
		parts = append(parts, b.node(id).name)
	}
	return joinReversed(parts)
}

// Freeze lays the records into an immutable snapshot: one exactly sized
// node array, subtree counts, and each directory's children sorted by
// name for lookup — a fixed number of
// allocations whatever the namespace holds. It returns the first
// refusal, if a call was refused, and refuses a name used twice in one
// directory. The builder is left as it was; the snapshot shares its name
// strings.
func (b *Builder) Freeze() (*Frozen, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	f := &Frozen{
		nodes:    make([]fnode, n),
		byName:   make([]uint32, n-1),
		numFiles: b.numFiles,
		numDirs:  b.numDirs,
	}
	nodes := f.nodes
	for i, c := range b.chunks {
		copy(nodes[i*chunkLen:], c.nodes[:])
	}
	// Segments by a counting pass over parents: count, lay the offsets
	// out in ID order, then place each child in its parent's segment,
	// which is sorted by name below.
	for i := 1; i < n; i++ {
		nodes[nodes[i].parent-1].kidLen++
	}
	off := uint32(0)
	for i := range nodes {
		fn := &nodes[i]
		fn.kidOff, off, fn.kidLen = off, off+fn.kidLen, 0
	}
	for i := 1; i < n; i++ {
		p := &nodes[nodes[i].parent-1]
		f.byName[p.kidOff+p.kidLen] = uint32(i + 1)
		p.kidLen++
	}
	// Children have larger IDs than their parent, so one reverse pass
	// sees every subtree complete before adding it to the parent's.
	for i := n - 1; i >= 0; i-- {
		fn := &nodes[i]
		fn.sub++
		if fn.parent != 0 {
			nodes[fn.parent-1].sub += fn.sub
		}
	}
	// Each directory's segment of byName, sorted by name; a name used
	// twice ends up beside itself.
	byName := func(x, y uint32) int { return strings.Compare(nodes[x-1].name, nodes[y-1].name) }
	for i := range nodes {
		fn := &nodes[i]
		seg := f.byName[fn.kidOff : fn.kidOff+fn.kidLen]
		slices.SortFunc(seg, byName)
		for j := 1; j < len(seg); j++ {
			if name := nodes[seg[j]-1].name; name == nodes[seg[j-1]-1].name {
				return nil, fmt.Errorf("namespace: %s already contains %q", b.path(InodeID(i+1)), name)
			}
		}
	}
	return f, nil
}
