package osd

import (
	"fmt"

	"dynmds/internal/sim"
)

// The device service model: a modest pool of 2004-era disks.
const (
	// readLatency is the average positioning cost per object read.
	readLatency = 8 * sim.Millisecond
	// readPerRecord is the transfer cost per metadata record.
	readPerRecord = 10 * sim.Microsecond
	// writeLatency is the cost of a (log or tier) object write.
	writeLatency = 500 * sim.Microsecond
)

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

// Read fetches an object of the given record count from its primary
// device; done runs at completion.
func (p *Pool) Read(obj ObjectID, records int, done func()) {
	if records < 1 {
		records = 1
	}
	p.devs[p.placement.Primary(obj)].Submit(readLatency+sim.Time(records)*readPerRecord, done)
}

// Write appends to an object at every replica; done runs when the
// slowest replica acknowledges.
func (p *Pool) Write(obj ObjectID, done func()) {
	replicas := p.placement.Replicas(obj, p.cfg.Replicas)
	remaining := len(replicas)
	for _, dev := range replicas {
		p.devs[dev].Submit(writeLatency, func() {
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
		})
	}
}
