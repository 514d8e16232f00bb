package sim

import "dynmds/internal/snap"

// Server models a FIFO service centre with a fixed number of parallel
// service slots (width) and a caller-supplied service time per job. It is
// the building block for modelling contended resources: an MDS CPU
// (width 1, per-op service time), a disk (width 1, per-I/O latency), or a
// NIC (width n).
//
// Jobs are served in submission order. When a job's service completes its
// callback runs at the completion instant.
//
// Jobs are pooled: a free-list of *job structs is recycled so a
// steady-state submit/complete cycle allocates nothing. A job is
// returned to the free list only by the completion event that consumes
// it — never while its completion is still queued in the engine — so
// Engine.Stop leaving events queued cannot corrupt the pool (see
// DESIGN.md, "Pooling rules").
//
// The waiting line is a ring: enqueue and dequeue are O(1) whatever the
// backlog, so a node driven past capacity costs the same per job as an
// idle one. The qlen waiting jobs are queue[(head+i)&(len(queue)-1)]
// for i in [0, qlen); len(queue) is zero or a power of two, doubles
// when full and never shrinks. Where the ring starts is layout, not
// state: a checkpoint only ever sees an idle server (Snap).
type Server struct {
	eng   *Engine
	width int
	busy  int
	queue []*job
	head  int
	qlen  int
	free  []*job

	// Stats
	Completed  uint64
	Submitted  uint64
	BusyTime   Time // total slot-occupancy time accumulated
	lastChange Time

	// MaxQueue is the deepest the waiting line has been since this
	// Server was constructed. It is a diagnostic only — not part of
	// Snap, of any snapshot, Result or digest — so it restarts
	// from zero when a run is restored from a checkpoint.
	MaxQueue int
}

// job is one pooled unit of service. fn/a/b use the engine's typed
// callback convention; the legacy done-func form rides in fn=callFunc0.
type job struct {
	s       *Server
	service Time
	fn      EventFunc
	a, b    any
}

// NewServer creates a service centre with the given parallel width.
func NewServer(eng *Engine, width int) *Server {
	if width < 1 {
		panic("sim: server width must be >= 1")
	}
	return &Server{eng: eng, width: width}
}

// QueueLen reports the number of jobs waiting (not in service).
func (s *Server) QueueLen() int { return s.qlen }

// InService reports the number of jobs currently being served.
func (s *Server) InService() int { return s.busy }

// Utilization returns mean slot occupancy in [0,1] since construction.
func (s *Server) Utilization(now Time) float64 {
	s.account(now)
	if now == 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(int64(now)*int64(s.width))
}

func (s *Server) account(now Time) {
	s.BusyTime += Time(int64(now-s.lastChange) * int64(s.busy))
	s.lastChange = now
}

// Snap walks the accounting state a checkpoint carries. The server must
// be idle (drained): in-service or queued jobs are events, not
// serializable state.
func (s *Server) Snap(c *snap.Codec) {
	if s.busy != 0 || s.qlen != 0 {
		panic("sim: snapshotting a non-idle server")
	}
	snap.U(c, &s.Completed)
	snap.U(c, &s.Submitted)
	snap.I(c, &s.BusyTime)
	snap.I(c, &s.lastChange)
}

// Submit enqueues a job with the given service time. done runs when the
// job completes; it may be nil.
func (s *Server) Submit(service Time, done func()) {
	if done == nil {
		s.SubmitCall(service, nil, nil, nil)
		return
	}
	s.SubmitCall(service, callFunc0, done, nil)
}

// SubmitCall enqueues a job whose completion runs fn(a, b) — the
// allocation-free form of Submit. fn may be nil.
func (s *Server) SubmitCall(service Time, fn EventFunc, a, b any) {
	if service < 0 {
		panic("sim: negative service time")
	}
	s.Submitted++
	s.account(s.eng.Now())
	j := s.getJob()
	j.service, j.fn, j.a, j.b = service, fn, a, b
	if s.busy < s.width {
		s.start(j)
		return
	}
	if s.qlen == len(s.queue) {
		s.grow()
	}
	s.queue[(s.head+s.qlen)&(len(s.queue)-1)] = j
	s.qlen++
	if s.qlen > s.MaxQueue {
		s.MaxQueue = s.qlen
	}
}

// grow doubles the ring, unrolling the waiting jobs from head so the
// new ring starts at slot 0.
func (s *Server) grow() {
	q := make([]*job, max(8, 2*len(s.queue)))
	n := copy(q, s.queue[s.head:])
	copy(q[n:], s.queue[:s.head])
	s.queue, s.head = q, 0
}

func (s *Server) getJob() *job {
	if n := len(s.free); n > 0 {
		j := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return j
	}
	return &job{s: s}
}

func (s *Server) start(j *job) {
	s.busy++
	s.eng.AfterCall(j.service, jobComplete, j, nil)
}

// jobComplete is the pooled completion dispatcher: it releases the job
// back to the free list before invoking the callback, so the callback
// may resubmit without growing the pool. The next waiting job starts
// before the callback runs too: its completion event must take its seq
// ahead of anything the callback schedules, or same-instant ties — and
// with them every digest — come out differently.
func jobComplete(x, _ any) {
	j := x.(*job)
	s := j.s
	s.account(s.eng.Now())
	s.busy--
	s.Completed++
	fn, a, b := j.fn, j.a, j.b
	j.fn, j.a, j.b = nil, nil, nil
	s.free = append(s.free, j)
	if s.qlen > 0 {
		next := s.queue[s.head]
		s.queue[s.head] = nil
		s.head = (s.head + 1) & (len(s.queue) - 1)
		s.qlen--
		s.start(next)
	}
	if fn != nil {
		fn(a, b)
	}
}
