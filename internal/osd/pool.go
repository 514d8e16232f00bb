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
	// Replicas per object (reads go to the primary, falling over to
	// the next replica when a device is down).
	Replicas int
}

// DefaultConfig returns a pool of n devices, two replicas per object.
func DefaultConfig(n int) Config {
	return Config{NumOSDs: n, Replicas: 2}
}

// Stats counts pool activity.
type Stats struct {
	Reads          uint64
	Writes         uint64
	FailoverReads  uint64 // reads redirected past a down primary
	UnplacedErrors uint64 // reads with no live replica
}

// Pool is the shared object store: a set of OSD service centres plus
// the deterministic placement function. All MDS nodes share one pool —
// that is what makes metadata takeover after an MDS failure possible
// without moving any data (§2.1.3).
type Pool struct {
	cfg       Config
	placement *Placement
	devs      []*sim.Server
	down      []bool

	Stats Stats
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
		p.down = append(p.down, false)
	}
	return p, nil
}

// Read fetches an object of the given record count: placement picks the
// primary; a down primary fails over to the next replica. done runs at
// completion; if no replica is alive the read is dropped and counted.
func (p *Pool) Read(obj ObjectID, records int, done func()) {
	if records < 1 {
		records = 1
	}
	for i, dev := range p.placement.Replicas(obj, p.cfg.Replicas) {
		if p.down[dev] {
			continue
		}
		if i > 0 {
			p.Stats.FailoverReads++
		}
		p.Stats.Reads++
		p.devs[dev].Submit(readLatency+sim.Time(records)*readPerRecord, done)
		return
	}
	p.Stats.UnplacedErrors++
}

// Write appends to an object at every live replica; done runs when the
// slowest live replica acknowledges.
func (p *Pool) Write(obj ObjectID, done func()) {
	replicas := p.placement.Replicas(obj, p.cfg.Replicas)
	outstanding := 0
	for _, dev := range replicas {
		if p.down[dev] {
			continue
		}
		outstanding++
	}
	if outstanding == 0 {
		p.Stats.UnplacedErrors++
		return
	}
	remaining := outstanding
	for _, dev := range replicas {
		if p.down[dev] {
			continue
		}
		p.Stats.Writes++
		p.devs[dev].Submit(writeLatency, func() {
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
		})
	}
}
