// Package msg defines the operation vocabulary and the message types
// exchanged between clients and the MDS cluster. The metadata workload
// is the restricted op set the paper identifies (§2.2): inode operations
// (open, close, stat, setattr/chmod) and namespace operations (create,
// unlink, mkdir, rename, readdir).
package msg

import (
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// Op is a metadata operation type.
type Op uint8

// Metadata operations.
const (
	Open Op = iota
	Close
	Stat
	Readdir
	Create
	Unlink
	Mkdir
	Chmod
	Rename
	// Write is a size/mtime metadata update from a data-path write.
	// Uniquely among updates it may be absorbed by a replica: size and
	// mtime are monotonically increasing, so replicas serving
	// concurrent writers batch their local maxima and periodically
	// flush them to the authority (§4.2, the GPFS technique).
	Write
)

var opNames = [...]string{"open", "close", "stat", "readdir", "create",
	"unlink", "mkdir", "chmod", "rename", "write"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// IsUpdate reports whether the operation mutates metadata and therefore
// must be serialized at the authority and committed to the log.
func (o Op) IsUpdate() bool {
	switch o {
	case Create, Unlink, Mkdir, Chmod, Rename, Write:
		return true
	}
	return false
}

// Request is one client metadata operation in flight.
type Request struct {
	// ID is unique within the issuing client's request lifecycle, and
	// zero once the client has retired the request (answered or
	// abandoned it).
	ID     uint64
	Client int
	Op     Op

	// Target is the inode the operation applies to. For Create and
	// Mkdir it is the containing directory; NewName is the entry to
	// create. For Rename, Target moves to DstDir/NewName.
	Target  *namespace.Inode
	DstDir  *namespace.Inode
	NewName string
	// Size is the new file size for Write operations.
	Size int64

	// Issued is when the client sent the request.
	Issued sim.Time
	// Hops counts intra-cluster forwards experienced so far.
	Hops int
	// Via is the node that forwarded the request on its last hop, or -1
	// if it arrived straight from the client. Receivers ack forwards back
	// to Via when fault injection arms the forward timeout.
	Via int
	// Applied is set by the authority when an update commits, making
	// re-delivered retries idempotent: a duplicate is answered without
	// re-applying the mutation.
	Applied bool
	// Counted is set when the open/close bookkeeping for this request has
	// run, so a re-delivered open or close does not double-count.
	Counted bool
}

// Hint tells a client where to direct future requests for one inode: at
// the authoritative node, or anywhere if the item is widely replicated
// (the traffic-control lever of §4.4).
type Hint struct {
	Ino        namespace.InodeID
	Authority  int
	Replicated bool
}

// Reply completes a request. The identifying fields (Client, ID) and
// Issued are copied BY VALUE from the request when the authority builds
// the reply: the client accepts the reply only while Req still carries
// that ID, and a recycled struct carries another, so consumers must
// never derive identity or latency from Req's fields.
type Reply struct {
	Req       *Request
	Client    int
	ID        uint64
	Issued    sim.Time
	Completed sim.Time
	// Hints covers the target and its prefix directories.
	Hints []Hint
	// Leased grants the client a read lease on the request's target
	// (internal/lease). LeaseGen is the authority's recall generation at
	// grant time: the client stores it on the lease slot, and a recall
	// bumps the shared generation, so a grant that raced a recall is
	// stale on arrival instead of resurrecting the lease. Like the
	// identity fields these are value state and must be reset when the
	// reply struct is recycled.
	Leased   bool
	LeaseGen uint32
}

// Latency returns the request's total response time, from the Issued
// value captured at reply-build time (immune to request recycling).
func (r *Reply) Latency() sim.Time { return r.Completed - r.Issued }
