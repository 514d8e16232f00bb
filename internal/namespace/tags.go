package namespace

import "dynmds/internal/metrics"

// Tags is the per-inode state the layers above keep in the inode itself:
// the partition's authority memo, traffic control's popularity counter
// and replica set, and the dynamic strategy's hashed-directory mark.
// The namespace package never touches it.
//
// It is 32 pointer-free bytes held by value after the inode's last
// pointer word, so touching an inode's tags never allocates and the
// collector's scan of an inode stops before them (TestTagsBlockLayout,
// TestTagsAllocs). State that almost no inode carries lives in maps
// owned by the mechanisms that write it.
type Tags struct {
	// Pop is the decayed access counter (§4.4), meaningful once the
	// PopTouched flag is set.
	Pop metrics.Decay
	// ReplicaSet is a bitmask of the MDS nodes holding replicas of this
	// record, one bit for each of at most MaxMDS nodes.
	ReplicaSet uint64
	// AuthEpoch and Auth memoize the inode's authority: Auth is valid
	// while AuthEpoch matches the subtree table's epoch.
	AuthEpoch uint32
	Auth      uint16
	flags     TagFlag
}

// MaxMDS is the largest cluster a ReplicaSet (and an unflushed-writer
// mask of the same width) can name; cluster.Config.Validate refuses a
// larger one.
const MaxMDS = 64

// TagFlag is one of a Tags record's flag bits.
type TagFlag uint8

// The flag bits.
const (
	// PopTouched records that Pop has been bumped at least once.
	PopTouched TagFlag = 1 << iota
	// ReplicatedAll marks metadata replicated across the cluster by
	// traffic control or lease fan-out.
	ReplicatedAll
	// HashedDir marks a directory whose entries are dynamically hashed
	// across the cluster (§4.3).
	HashedDir
)

// Has reports whether flag f is set.
func (t *Tags) Has(f TagFlag) bool { return t.flags&f != 0 }

// Set sets or clears flag f.
func (t *Tags) Set(f TagFlag, on bool) {
	if on {
		t.flags |= f
	} else {
		t.flags &^= f
	}
}

// SetReplica marks node id as holding a replica.
func (t *Tags) SetReplica(id int) {
	if id < MaxMDS {
		t.ReplicaSet |= 1 << uint(id)
	}
}

// ClearReplica removes node id from the replica set.
func (t *Tags) ClearReplica(id int) {
	if id < MaxMDS {
		t.ReplicaSet &^= 1 << uint(id)
	}
}

// HasReplica reports whether node id holds a replica.
func (t *Tags) HasReplica(id int) bool {
	return id < MaxMDS && t.ReplicaSet&(1<<uint(id)) != 0
}
