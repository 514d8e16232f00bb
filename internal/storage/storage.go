// Package storage models the metadata storage subsystem beneath one MDS.
// Following the paper's methodology (§5.1), it does not simulate disk
// geometry: "we simplify the storage simulation to reflect average disk
// latencies and transactional throughputs only". What it does model:
//
//   - A read service centre with an average per-I/O latency, so reads
//     queue and an MDS's I/O rate is throttled.
//   - Directory-granular reads with embedded inodes (§4.5): strategies
//     that store a directory's entries and inodes together fetch the
//     whole directory in one I/O (plus a small per-record transfer
//     cost), enabling prefetching; strategies with scattered per-file
//     metadata pay one I/O per inode.
//   - The two-tier update path (§4.6): updates append to a bounded log
//     (fast sequential writes, optionally NVRAM-masked); entries that
//     fall off the end of the log without subsequent modification are
//     written to the long-term object-store tier. With a log sized on
//     the order of MDS memory, the log approximates the node's working
//     set and can preload the cache after a failure.
package storage

import (
	"dynmds/internal/namespace"
	"dynmds/internal/osd"
	"dynmds/internal/sim"
)

// Config sets the latency model.
type Config struct {
	// ReadLatency is the average positioning cost of one random
	// metadata read I/O.
	ReadLatency sim.Time
	// ReadPerRecord is the incremental transfer time per metadata
	// record in a directory-granular read.
	ReadPerRecord sim.Time
	// LogAppendLatency is the commit latency of one log append. NVRAM
	// in the MDS can mask this almost entirely.
	LogAppendLatency sim.Time
	// LogCapacity is the bounded log's size in records; on the order of
	// the MDS cache capacity per the paper.
	LogCapacity int
	// DirObjectOrder, when > 0, models long-term directory objects as
	// copy-on-write B-trees of that order, accounting incremental write
	// amplification (§4.6). Zero disables the model.
	DirObjectOrder int

	// Pool, when non-nil, routes reads and log appends to the shared
	// OSD pool instead of node-local disks — the shared metadata store
	// of §2.1.3 that "offers fundamental advantages over
	// directly-attached storage by easing MDS failover". PoolOwner is
	// this node's index (for its log object).
	Pool      *osd.Pool
	PoolOwner int
}

// DefaultConfig returns disk parameters resembling 2004-era hardware:
// ~8 ms average random read, ~10 µs per record transferred, ~100 µs
// NVRAM-backed log append.
func DefaultConfig(logCapacity int) Config {
	return Config{
		ReadLatency:      8 * sim.Millisecond,
		ReadPerRecord:    10 * sim.Microsecond,
		LogAppendLatency: 100 * sim.Microsecond,
		LogCapacity:      logCapacity,
		DirObjectOrder:   32,
	}
}

// Stats counts storage activity.
type Stats struct {
	InodeReads  uint64 // single-record read I/Os
	DirReads    uint64 // directory-granular read I/Os
	RecordsRead uint64 // total records fetched
	LogAppends  uint64
	TierWrites  uint64 // records flushed from log to the store tier
}

// Store is one MDS's storage subsystem.
type Store struct {
	cfg      Config
	readDisk *sim.Server
	logDisk  *sim.Server
	log      *BoundedLog
	// slow scales service times while a slow-node fault window is
	// active; <= 1 means normal speed. The shared-pool ablation path is
	// not scaled (pool service times belong to the pool, not the node).
	slow float64

	// Dirs is the long-term tier's directory-object model; nil when
	// disabled.
	Dirs *DirObjects

	Stats Stats
}

// New creates a store on the given engine.
func New(eng *sim.Engine, cfg Config) *Store {
	if cfg.LogCapacity < 1 {
		cfg.LogCapacity = 1
	}
	s := &Store{
		cfg:      cfg,
		readDisk: sim.NewServer(eng, 1),
		logDisk:  sim.NewServer(eng, 1),
		log:      NewBoundedLog(cfg.LogCapacity),
	}
	if cfg.DirObjectOrder > 0 {
		s.Dirs = NewDirObjects(cfg.DirObjectOrder)
	}
	return s
}

// SetSlow scales subsequent disk service times by factor (slow-node
// fault injection); factor <= 1 restores normal speed.
func (s *Store) SetSlow(factor float64) { s.slow = factor }

func (s *Store) scaled(t sim.Time) sim.Time {
	if s.slow <= 1 {
		return t
	}
	return sim.Time(float64(t) * s.slow)
}

// ReadInodeCall fetches a single metadata record (scattered-inode
// layout) for the given inode; fn(a, b) runs when the I/O completes,
// the payload riding in the event so the read allocates nothing. The
// shared-pool path closes over the arguments (it is an ablation
// configuration, not the measured hot path).
func (s *Store) ReadInodeCall(id namespace.InodeID, fn sim.EventFunc, a, b any) {
	s.Stats.InodeReads++
	s.Stats.RecordsRead++
	if s.cfg.Pool != nil {
		s.cfg.Pool.Read(osd.DirObject(id), 1, func() { fn(a, b) })
		return
	}
	s.readDisk.SubmitCall(s.scaled(s.cfg.ReadLatency+s.cfg.ReadPerRecord), fn, a, b)
}

// ReadDirCall fetches directory dir and its embedded inodes in one I/O:
// records is the number of entries transferred (directory + children).
func (s *Store) ReadDirCall(dir namespace.InodeID, records int, fn sim.EventFunc, a, b any) {
	if records < 1 {
		records = 1
	}
	s.Stats.DirReads++
	s.Stats.RecordsRead += uint64(records)
	if s.cfg.Pool != nil {
		s.cfg.Pool.Read(osd.DirObject(dir), records, func() { fn(a, b) })
		return
	}
	s.readDisk.SubmitCall(s.scaled(s.cfg.ReadLatency+sim.Time(records)*s.cfg.ReadPerRecord), fn, a, b)
}

// CommitCall appends an update for the inode to the bounded log. Records
// expelled from the log are counted as tier writes (they are flushed to
// the long-term store asynchronously; the flush does not delay reads in
// this model, matching the paper's write-bandwidth-dominated view).
// With a shared pool the log object itself lives on OSDs, which is what
// lets a standby replay a failed node's log (§4.6).
func (s *Store) CommitCall(id namespace.InodeID, fn sim.EventFunc, a, b any) {
	s.Stats.LogAppends++
	if expelled := s.log.Append(id); expelled {
		s.Stats.TierWrites++
	}
	if s.cfg.Pool != nil {
		s.cfg.Pool.Write(osd.LogObject(s.cfg.PoolOwner), func() { fn(a, b) })
		return
	}
	s.logDisk.SubmitCall(s.scaled(s.cfg.LogAppendLatency), fn, a, b)
}

// WorkingSet returns the distinct inode IDs currently in the log, oldest
// first — the approximate working set used to pre-warm a cache after
// failover (§4.6).
func (s *Store) WorkingSet() []namespace.InodeID { return s.log.Distinct() }

// QueueDepth reports outstanding read I/Os (queued + in service).
func (s *Store) QueueDepth() int {
	return s.readDisk.QueueLen() + s.readDisk.InService()
}

// ReadUtilization reports mean read-disk occupancy.
func (s *Store) ReadUtilization(now sim.Time) float64 {
	return s.readDisk.Utilization(now)
}

// MaxQueues reports the deepest the read-disk and log-disk waiting
// lines have been (sim.Server.MaxQueue: a diagnostic that restarts on
// restore). Both stay zero when a shared OSD pool does the I/O.
func (s *Store) MaxQueues() (readDisk, logDisk int) {
	return s.readDisk.MaxQueue, s.logDisk.MaxQueue
}

// BoundedLog is a fixed-capacity append log of inode IDs. Appending when
// full expels the oldest entry; the expelled entry triggers a tier write
// only if no newer append for the same inode remains in the log (a newer
// entry supersedes it).
type BoundedLog struct {
	capacity int
	ring     []namespace.InodeID
	head     int // index of oldest
	n        int
	live     map[namespace.InodeID]int // entries per inode currently in log
}

// NewBoundedLog creates a log holding capacity records.
func NewBoundedLog(capacity int) *BoundedLog {
	if capacity < 1 {
		panic("storage: log capacity must be >= 1")
	}
	return &BoundedLog{
		capacity: capacity,
		ring:     make([]namespace.InodeID, capacity),
		live:     make(map[namespace.InodeID]int),
	}
}

// Len returns the number of records in the log.
func (l *BoundedLog) Len() int { return l.n }

// Cap returns the log capacity.
func (l *BoundedLog) Cap() int { return l.capacity }

// Append adds a record, reporting whether an expelled record required a
// tier write (no newer record for the same inode remained).
func (l *BoundedLog) Append(id namespace.InodeID) (tierWrite bool) {
	if l.n == l.capacity {
		old := l.ring[l.head]
		l.head = (l.head + 1) % l.capacity
		l.n--
		l.live[old]--
		if l.live[old] == 0 {
			delete(l.live, old)
			tierWrite = true
		}
	}
	tail := (l.head + l.n) % l.capacity
	l.ring[tail] = id
	l.n++
	l.live[id]++
	return tierWrite
}

// Contains reports whether the inode has a record in the log.
func (l *BoundedLog) Contains(id namespace.InodeID) bool {
	return l.live[id] > 0
}

// Distinct returns the distinct inode IDs in the log, oldest first.
func (l *BoundedLog) Distinct() []namespace.InodeID {
	seen := make(map[namespace.InodeID]bool, len(l.live))
	out := make([]namespace.InodeID, 0, len(l.live))
	for i := 0; i < l.n; i++ {
		id := l.ring[(l.head+i)%l.capacity]
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
