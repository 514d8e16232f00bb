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
	"fmt"
	"math/bits"

	"dynmds/internal/namespace"
	"dynmds/internal/osd"
	"dynmds/internal/sim"
)

// The disk model: 2004-era hardware.
const (
	// ReadLatency is the average positioning cost of one random
	// metadata read I/O.
	ReadLatency = 8 * sim.Millisecond
	// ReadPerRecord is the incremental transfer time per metadata
	// record in a directory-granular read.
	ReadPerRecord = 10 * sim.Microsecond
	// LogAppendLatency is the commit latency of one NVRAM-backed log
	// append: NVRAM in the MDS masks the disk almost entirely.
	LogAppendLatency = 100 * sim.Microsecond
)

// Config sizes the store.
type Config struct {
	// LogCapacity is the bounded log's size in records; on the order of
	// the MDS cache capacity per the paper.
	LogCapacity int

	// Pool, when non-nil, routes reads and log appends to the shared
	// OSD pool instead of node-local disks — the shared metadata store
	// of §2.1.3 that "offers fundamental advantages over
	// directly-attached storage by easing MDS failover". PoolOwner is
	// this node's index (for its log object).
	Pool      *osd.Pool
	PoolOwner int
}

// DefaultConfig returns a store with a log of logCapacity records.
func DefaultConfig(logCapacity int) Config {
	return Config{LogCapacity: logCapacity}
}

// Stats counts storage activity.
type Stats struct {
	TierWrites uint64 // records flushed from log to the store tier
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

	Stats Stats
}

// New creates a store on the given engine.
func New(eng *sim.Engine, cfg Config) *Store {
	if cfg.LogCapacity < 1 {
		cfg.LogCapacity = 1
	}
	return &Store{
		cfg:      cfg,
		readDisk: sim.NewServer(eng, 1),
		logDisk:  sim.NewServer(eng, 1),
		log:      NewBoundedLog(cfg.LogCapacity),
	}
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
	if s.cfg.Pool != nil {
		s.cfg.Pool.Read(osd.DirObject(id), 1, func() { fn(a, b) })
		return
	}
	s.readDisk.SubmitCall(s.scaled(ReadLatency+ReadPerRecord), fn, a, b)
}

// ReadDirCall fetches directory dir and its embedded inodes in one I/O:
// records is the number of entries transferred (directory + children).
func (s *Store) ReadDirCall(dir namespace.InodeID, records int, fn sim.EventFunc, a, b any) {
	if records < 1 {
		records = 1
	}
	if s.cfg.Pool != nil {
		s.cfg.Pool.Read(osd.DirObject(dir), records, func() { fn(a, b) })
		return
	}
	s.readDisk.SubmitCall(s.scaled(ReadLatency+sim.Time(records)*ReadPerRecord), fn, a, b)
}

// CommitCall appends an update for the inode to the bounded log. Records
// expelled from the log are counted as tier writes (they are flushed to
// the long-term store asynchronously; the flush does not delay reads in
// this model, matching the paper's write-bandwidth-dominated view).
// With a shared pool the log object itself lives on OSDs, which is what
// lets a standby replay a failed node's log (§4.6).
func (s *Store) CommitCall(id namespace.InodeID, fn sim.EventFunc, a, b any) {
	if expelled := s.log.Append(id); expelled {
		s.Stats.TierWrites++
	}
	if s.cfg.Pool != nil {
		s.cfg.Pool.Write(osd.LogObject(s.cfg.PoolOwner), func() { fn(a, b) })
		return
	}
	s.logDisk.SubmitCall(s.scaled(LogAppendLatency), fn, a, b)
}

// WorkingSet returns the distinct inode IDs currently in the log, oldest
// first — the approximate working set used to pre-warm a cache after
// failover (§4.6).
func (s *Store) WorkingSet() []namespace.InodeID { return s.log.Distinct() }

// CheckJournal verifies the bounded log against its index of newest
// records (BoundedLog.Check).
func (s *Store) CheckJournal() error { return s.log.Check() }

// MaxQueues reports the deepest the read-disk and log-disk waiting
// lines have been (sim.Server.MaxQueue: a diagnostic that restarts on
// restore). Both stay zero when a shared OSD pool does the I/O.
func (s *Store) MaxQueues() (readDisk, logDisk int) {
	return s.readDisk.MaxQueue, s.logDisk.MaxQueue
}

// MaxLogCapacity is the largest log a node keeps, in records: the ring
// (8 B a record) and its index (2^25 slots of 4 B) then take 256 MiB,
// and a ring position fits the index's int32 slots with room to spare.
const MaxLogCapacity = 1 << 24

// BoundedLog is a fixed-capacity append log of inode IDs. Appending when
// full expels the oldest entry; the expelled entry triggers a tier write
// only if no newer append for the same inode remains in the log (a newer
// entry supersedes it).
type BoundedLog struct {
	capacity int
	ring     []namespace.InodeID
	head     int // index of oldest
	n        int
	// newest indexes every inode in the log by its newest record: an
	// open-addressing table, at most half full and probed linearly, of
	// 1 + that record's ring position (0 is empty). The key is read from
	// the ring, so a slot is 4 bytes, and the table is made once, at
	// NewBoundedLog: appends never grow it. An expelled record is its
	// inode's last in the log iff it is the newest one.
	newest []int32
	shift  uint8 // 64 - log2(len(newest)): hash takes the top bits
	ids    int   // occupied slots: the distinct inodes in the log
}

// seen marks a slot whose inode Distinct has already listed, or Check
// has already reached; it is set and cleared within one such call.
const seen = -1 << 31

// NewBoundedLog creates a log holding capacity records, at most
// MaxLogCapacity.
func NewBoundedLog(capacity int) *BoundedLog {
	if capacity < 1 || capacity > MaxLogCapacity {
		panic(fmt.Sprintf("storage: log capacity %d outside 1..%d", capacity, MaxLogCapacity))
	}
	k := uint8(bits.Len(uint(2*capacity - 1)))
	return &BoundedLog{
		capacity: capacity,
		ring:     make([]namespace.InodeID, capacity),
		newest:   make([]int32, 1<<k),
		shift:    64 - k,
	}
}

// home returns the slot where the probe for id starts.
func (l *BoundedLog) home(id namespace.InodeID) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> l.shift)
}

// slot returns id's slot in newest: the one holding its newest record,
// or the empty one where it would go.
func (l *BoundedLog) slot(id namespace.InodeID) int {
	mask := len(l.newest) - 1
	for i := l.home(id); ; i = (i + 1) & mask {
		if p := l.newest[i]; p == 0 || l.ring[p&^seen-1] == id {
			return i
		}
	}
}

// note records ring position pos as its inode's newest record.
func (l *BoundedLog) note(pos int) {
	i := l.slot(l.ring[pos])
	if l.newest[i] == 0 {
		l.ids++
	}
	l.newest[i] = int32(pos + 1)
}

// Append adds a record, reporting whether an expelled record required a
// tier write (no newer record for the same inode remained).
func (l *BoundedLog) Append(id namespace.InodeID) (tierWrite bool) {
	if l.n == l.capacity {
		if i := l.slot(l.ring[l.head]); l.newest[i] == int32(l.head+1) {
			l.vacate(i)
			tierWrite = true
		}
		l.head = (l.head + 1) % l.capacity
		l.n--
	}
	tail := (l.head + l.n) % l.capacity
	l.ring[tail] = id
	l.n++
	l.note(tail)
	return tierWrite
}

// vacate empties slot i, shifting the slots after it back: one moves
// into the hole unless its home lies cyclically in (hole, its slot],
// where a probe for it would never pass the hole.
func (l *BoundedLog) vacate(i int) {
	mask := len(l.newest) - 1
	for j := (i + 1) & mask; l.newest[j] != 0; j = (j + 1) & mask {
		if (j-l.home(l.ring[l.newest[j]-1]))&mask >= (j-i)&mask {
			l.newest[i] = l.newest[j]
			i = j
		}
	}
	l.newest[i] = 0
	l.ids--
}

// Distinct returns the distinct inode IDs in the log, oldest first: each
// at its first record. It marks each listed inode's slot seen, then
// unmarks them, so it allocates only its result.
func (l *BoundedLog) Distinct() []namespace.InodeID {
	out := make([]namespace.InodeID, 0, l.ids)
	for k := 0; k < l.n; k++ {
		id := l.ring[(l.head+k)%l.capacity]
		if i := l.slot(id); l.newest[i] > 0 {
			l.newest[i] |= seen
			out = append(out, id)
		}
	}
	for _, id := range out {
		l.newest[l.slot(id)] &^= seen
	}
	return out
}

// Check verifies the log against its index of newest records and
// allocates nothing: the window fits the ring; each record's inode is
// found by its probe at a slot naming a record of the window no older
// than this one; and the index holds one slot per distinct inode in the
// window, as many as it counts, and no other. It marks each inode's
// slot seen as Distinct does and unmarks every slot before it returns.
func (l *BoundedLog) Check() error {
	if l.n < 0 || l.n > l.capacity || l.head < 0 || l.head >= l.capacity {
		return fmt.Errorf("window of %d records at %d in a ring of %d", l.n, l.head, l.capacity)
	}
	var err error
	for k := 0; k < l.n && err == nil; k++ {
		id := l.ring[(l.head+k)%l.capacity]
		i := l.slot(id)
		p := int(l.newest[i] &^ seen)
		switch newest := (p - 1 - l.head + l.capacity) % l.capacity; {
		case p == 0:
			err = fmt.Errorf("inode %d has record %d of the log and no index slot", id, k)
		case newest < k || newest >= l.n:
			err = fmt.Errorf("inode %d has record %d of the log, its slot names record %d", id, k, newest)
		default:
			l.newest[i] |= seen
		}
	}
	occupied, reached := 0, 0
	for i, p := range l.newest {
		if p != 0 {
			occupied++
		}
		if p < 0 {
			reached++
		}
		l.newest[i] = p &^ seen
	}
	switch {
	case err != nil:
		return err
	case occupied != l.ids:
		return fmt.Errorf("index counts %d inodes and holds %d slots", l.ids, occupied)
	case reached != occupied:
		return fmt.Errorf("%d index slots name no inode of the log", occupied-reached)
	}
	return nil
}
