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
// Jobs come from a Pool, so a steady-state submit/complete cycle
// allocates nothing and a backlog costs one malloc per block of jobs. A
// job is returned to the pool only by the completion event that
// consumes it — never while its completion is still queued in the
// engine — so RunUntil leaving events queued cannot corrupt the pool
// (see DESIGN.md, "Pooling rules").
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
	pool  Pool[job]

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

// job is one pooled unit of service; call runs at its completion.
type job struct {
	s       *Server
	service Time
	call    Call
}

// NewServer creates a service centre with the given parallel width.
func NewServer(eng *Engine, width int) *Server {
	if width < 1 {
		panic("sim: server width must be >= 1")
	}
	return &Server{eng: eng, width: width}
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

// SubmitCall enqueues a job with the given service time; its
// completion runs fn(a, b), allocating nothing. fn may be nil.
func (s *Server) SubmitCall(service Time, fn EventFunc, a, b any) {
	if service < 0 {
		panic("sim: negative service time")
	}
	s.Submitted++
	s.account(s.eng.Now())
	j := s.pool.Get()
	j.s, j.service = s, service
	j.call.Set(fn, a, b)
	if s.busy < s.width {
		s.start(j)
		return
	}
	if s.qlen == len(s.queue) {
		s.queue, s.head = growRing(s.queue, s.head, 8), 0
	}
	s.queue[(s.head+s.qlen)&(len(s.queue)-1)] = j
	s.qlen++
	if s.qlen > s.MaxQueue {
		s.MaxQueue = s.qlen
	}
}

func (s *Server) start(j *job) {
	s.busy++
	s.eng.AfterCall(j.service, jobComplete, j, nil)
}

// jobComplete is the pooled completion dispatcher: it releases the job
// back to the pool before invoking the callback, so the callback
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
	call := j.call
	j.call = Call{}
	s.pool.Put(j)
	if s.qlen > 0 {
		next := s.queue[s.head]
		s.queue[s.head] = nil
		s.head = (s.head + 1) & (len(s.queue) - 1)
		s.qlen--
		s.start(next)
	}
	if call.Fn != nil {
		call.Run()
	}
}
