package osd

import (
	"fmt"

	"dynmds/internal/sim"
)

// writeLatency is the device cost of a (log or tier) object write. A
// read's cost is the caller's: the store charges its own disk model.
const writeLatency = 500 * sim.Microsecond

// Config sizes the pool.
type Config struct {
	// NumOSDs is the pool size.
	NumOSDs int
	// Replicas per object: reads go to the primary, writes to every
	// replica.
	Replicas int
}

// DefaultConfig returns a pool of n devices, two replicas per object.
func DefaultConfig(n int) Config {
	return Config{NumOSDs: n, Replicas: 2}
}

// Pool is the shared object store: a set of OSD service centres plus
// the deterministic placement function. All MDS nodes share one pool —
// that is what makes metadata takeover after an MDS failure possible
// without moving any data (§2.1.3).
type Pool struct {
	cfg       Config
	placement *Placement
	devs      []*sim.Server
	replicas  []int // Write's placement scratch
	writes    sim.Pool[replicaWrite]
}

// replicaWrite counts down one write's replica acknowledgements.
type replicaWrite struct {
	remaining int
	done      sim.Call
}

// NewPool creates the pool on the engine.
func NewPool(eng *sim.Engine, cfg Config) (*Pool, error) {
	if cfg.NumOSDs < 1 {
		return nil, fmt.Errorf("osd: pool needs at least one device")
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	pl, err := NewPlacement(cfg.NumOSDs)
	if err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, placement: pl}
	for i := 0; i < cfg.NumOSDs; i++ {
		p.devs = append(p.devs, sim.NewServer(eng, 1))
	}
	return p, nil
}

// Read fetches an object from its primary device, which is busy for
// cost; fn(a, b) runs at completion.
func (p *Pool) Read(obj ObjectID, cost sim.Time, fn sim.EventFunc, a, b any) {
	p.devs[p.placement.Primary(obj)].SubmitCall(cost, fn, a, b)
}

// Write appends to an object at every replica; fn(a, b) runs when the
// slowest replica acknowledges.
func (p *Pool) Write(obj ObjectID, fn sim.EventFunc, a, b any) {
	p.replicas = p.placement.Replicas(p.replicas[:0], obj, p.cfg.Replicas)
	w := p.writes.Get()
	w.remaining = len(p.replicas)
	w.done.Set(fn, a, b)
	for _, dev := range p.replicas {
		p.devs[dev].SubmitCall(writeLatency, replicaAcked, p, w)
	}
}

// replicaAcked counts one replica's acknowledgement; the last one
// releases the countdown, then runs the write's continuation.
func replicaAcked(x, y any) {
	p, w := x.(*Pool), y.(*replicaWrite)
	if w.remaining--; w.remaining == 0 {
		done := w.done
		w.done = sim.Call{}
		p.writes.Put(w)
		done.Run()
	}
}
