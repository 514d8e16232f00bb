package endure

import (
	"fmt"
	"hash/fnv"
	"os"

	"dynmds/internal/cluster"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

// SnapshotVersion is the endurance snapshot format version. Bump it on
// any incompatible change to the section layout; Restore rejects
// mismatched files rather than misreading them.
const SnapshotVersion = 2

// header is the "endure" section at the front of every snapshot file:
// enough to validate the restoring run's configuration and position the
// resume before a single simulation byte is decoded.
type header struct {
	Version    int
	ConfigHash uint64
	Shards     int // effective shard count the snapshot was taken with
	Checkpoint int // 0-based index into Instants(Every, Duration)
	ResumeAt   sim.Time
	MaxID      namespace.InodeID
	Faults     string
}

// At returns the checkpoint instant the snapshot was written at (the
// resume point is one quiesce drain later).
func (h *header) At() sim.Time { return h.ResumeAt - cluster.QuiesceDrain }

// configHash digests the parts of a cluster config that shape the event
// sequence, excluding the fault schedule (chaos shrinking restores a
// snapshot under a *reduced* schedule on purpose) and the shard count
// (restore must work at any K — determinism across K is a separate,
// tested property; the effective shard count is recorded in its own
// header field and checked for an exact match instead).
func configHash(cfg *cluster.Config) uint64 {
	cp := *cfg
	cp.Faults = ""
	cp.Shards = 0
	cp.MDS.Storage.Pool = nil // nil in endure runs; avoid hashing an address
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d mds=%d cpm=%d strat=%q depth=%d fs=%+v mds=%+v client=%+v work=%+v net=%q bw=%g susp=%d hashdir=%d lease=%+v dur=%d warm=%d bucket=%d",
		cp.Seed, cp.NumMDS, cp.ClientsPerMDS, cp.Strategy, cp.PartitionDepth,
		cp.FS, cp.MDS, cp.Client, cp.Workload, cp.NetModel, cp.LinkBandwidth,
		cp.SuspicionThreshold, cp.HashDirThreshold, cp.Lease,
		cp.Duration, cp.Warmup, cp.SeriesBucket)
	if cp.OpenLoop != nil {
		fmt.Fprintf(h, " pop=%+v", *cp.OpenLoop)
	}
	if cp.Balancer != nil {
		fmt.Fprintf(h, " bal=%+v", *cp.Balancer)
	}
	if cp.Traffic != nil {
		fmt.Fprintf(h, " tc=%+v", *cp.Traffic)
	}
	// cp.Snapshot is deliberately not hashed: the tree it holds is a
	// pure function of (FS, Seed) when endure generates it, and opaque
	// when the caller shares one — either way presence timing must not
	// change the hash.
	return h.Sum64()
}

// effectiveShards replicates the cluster's shard-count clamp so the
// header can be validated without building a cluster.
func effectiveShards(cfg *cluster.Config) int {
	k := cfg.Shards
	if k > cfg.NumMDS {
		k = cfg.NumMDS
	}
	if k <= 1 {
		return 0
	}
	return k
}

// snap walks the header. A version this build does not read stops the
// walk before any field the other version may lay out differently.
func (h *header) snap(c *snap.Codec) {
	snap.I(c, &h.Version)
	if h.Version != SnapshotVersion {
		c.Failf("snapshot version %d, this build reads version %d", h.Version, SnapshotVersion)
	}
	snap.U(c, &h.ConfigHash)
	snap.I(c, &h.Shards)
	snap.I(c, &h.Checkpoint)
	snap.I(c, &h.ResumeAt)
	snap.U(c, &h.MaxID)
	c.String(&h.Faults)
}

// encodeSnapshot serializes the quiesced cluster plus the endure header
// into one snapshot byte stream. resumeAt is the post-drain instant the
// restored run will continue from.
func encodeSnapshot(c *cluster.Cluster, cfg *cluster.Config, checkpoint int, resumeAt sim.Time) []byte {
	h := header{
		Version:    SnapshotVersion,
		ConfigHash: configHash(cfg),
		Shards:     effectiveShards(cfg),
		Checkpoint: checkpoint,
		ResumeAt:   resumeAt,
		MaxID:      c.Tree().MaxID(),
		Faults:     cfg.Faults,
	}
	w := snap.NewWriter()
	snap.Encoder(w).Section("endure", h.snap)
	c.CheckpointTo(w)
	return w.Bytes()
}

// decodeHeader validates the checksum and reads the endure header,
// leaving the reader positioned at the first cluster section.
func decodeHeader(data []byte) (*header, *snap.Reader, error) {
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, nil, fmt.Errorf("endure: %w", err)
	}
	h := new(header)
	dec := snap.Decoder(r)
	if dec.Section("endure", h.snap); dec.Err() != nil {
		return nil, nil, fmt.Errorf("endure: not a snapshot this build restores: %w", dec.Err())
	}
	return h, r, nil
}

// position validates the header's checkpoint index against the
// restoring run's cadence.
func (h *header) position(every, duration sim.Time) error {
	instants := Instants(every, duration)
	if h.Checkpoint < 0 || h.Checkpoint >= len(instants) ||
		instants[h.Checkpoint] != h.At() {
		return fmt.Errorf("endure: snapshot checkpoint %d at t=%.3fs does not match cadence %v over %v",
			h.Checkpoint, h.At().Seconds(), every, duration)
	}
	if h.Checkpoint == len(instants)-1 {
		return fmt.Errorf("endure: snapshot is the run's final checkpoint; nothing to resume")
	}
	return nil
}

// ValidateSnapshot checks that path can be restored under opt without
// running any simulation: codec checksum, format version, config hash,
// shard count, and checkpoint cadence. A non-nil error is a usage
// error — the file and the flags disagree — so callers treat it like a
// bad flag value (exit 2), not a runtime failure.
func ValidateSnapshot(opt Options, path string) error {
	if err := opt.Normalize(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("endure: %w", err)
	}
	hdr, _, err := decodeHeader(data)
	if err != nil {
		return err
	}
	if err := hdr.check(&opt.Cluster); err != nil {
		return err
	}
	return hdr.position(opt.Every, opt.Cluster.Duration)
}

// check validates a snapshot header against the restoring run's config.
// Shard count and config hash must match exactly; the fault schedule is
// deliberately NOT checked (shrinking replays snapshots under reduced
// schedules), only recorded for the repro line.
func (h *header) check(cfg *cluster.Config) error {
	if got := effectiveShards(cfg); got != h.Shards {
		return fmt.Errorf("endure: snapshot was taken with %d shards, this run uses %d (shard count must match to restore)",
			h.Shards, got)
	}
	if got := configHash(cfg); got != h.ConfigHash {
		return fmt.Errorf("endure: snapshot config hash %016x does not match this run's %016x (same workload configuration required)",
			h.ConfigHash, got)
	}
	return nil
}
