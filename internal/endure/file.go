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
const SnapshotVersion = 9

// header is the "endure" section at the front of every snapshot file:
// enough to validate the restoring run's configuration and position the
// resume before a single simulation byte is decoded.
type header struct {
	Version    int
	ConfigHash uint64
	Checkpoint int // 0-based index into Instants(Every, Duration)
	ResumeAt   sim.Time
	MaxID      namespace.InodeID
}

// configHash digests the parts of a cluster config that shape the event
// sequence, field by field. It leaves out the fault schedule (chaos
// shrinking restores a snapshot under a *reduced* schedule on purpose),
// the storage pool (nil in endure runs), and Acts, OSDs and NoEmbed,
// which EndureCheck refuses. cfg.Snapshot is deliberately not hashed:
// the tree it holds is a pure function of (FS, Seed) when endure
// generates it, and opaque when the caller shares one — either way
// presence timing must not change the hash. TestConfigHashCoversEveryField
// holds it to every other field.
func configHash(cfg *cluster.Config) uint64 {
	h := fnv.New64a()
	fs, m, cl, w, g, l := &cfg.FS, &cfg.MDS, &cfg.Client, &cfg.Workload, &cfg.Workload.General, &cfg.Lease
	fmt.Fprintf(h, "seed=%d mds=%d cpm=%d strat=%q depth=%d net=%q hashdir=%d dur=%d warm=%d bucket=%d",
		cfg.Seed, cfg.NumMDS, cfg.ClientsPerMDS, cfg.Strategy, cfg.PartitionDepth, cfg.NetModel,
		cfg.HashDirThreshold, cfg.Duration, cfg.Warmup, cfg.SeriesBucket)
	fmt.Fprintf(h, " fs=%d/%d/%d/%d/%v/%v/%d/%d/%d/%d/%d", fs.Seed, fs.Users, fs.DirsPerUser, fs.MaxDepth,
		fs.FilesPerDirMedian, fs.FilesPerDirSigma, fs.FilesPerDirMax, fs.SystemDirs, fs.SystemFilesPerDir,
		fs.Projects, fs.FilesPerProject)
	fmt.Fprintf(h, " node=%d/%d/%d/%t client=%d/%d/%d", m.CacheCapacity, m.Storage.LogCapacity,
		m.Storage.PoolOwner, m.PrefetchHot, cl.ThinkMean, cl.KnownCap, cl.RetryTimeout)
	fmt.Fprintf(h, " work=%q/%v/%v/%v/%v/%v/%v/%v/%v/%v/%v/%v/%v/%v/%d/%d", w.Kind,
		g.Mix.Stat, g.Mix.Open, g.Mix.Readdir, g.Mix.Create, g.Mix.Unlink, g.Mix.Mkdir, g.Mix.Chmod, g.Mix.Rename,
		g.PMove, g.PJump, g.PShared, g.PDirChmod, g.PDirRename, g.ReaddirStats, w.ShiftTime)
	fmt.Fprintf(h, " lease=%t/%d/%t", l.Enabled, l.Duration, l.Fanout)
	if p := cfg.OpenLoop; p != nil {
		fmt.Fprintf(h, " pop=%d/%v/%d/%d/%v/%v/%d/%v/%v/%v/%v/%v/%v/%v/%v", p.Clients, p.Rate, p.Ways,
			p.Tenant.Tenants, p.Tenant.TenantSkew, p.Tenant.FileSkew, p.Tenant.WorkingSet, p.DiurnalAmp, p.BurstProb,
			p.MixStat, p.MixReaddir, p.MixChmod, p.MixCreate, p.MixRename, p.MixUnlink)
	}
	if b := cfg.Balancer; b != nil {
		fmt.Fprintf(h, " bal=%d/%t", b.Interval, b.NoRedelegateFirst)
	}
	if tc := cfg.Traffic; tc != nil {
		// The policy's thresholds; its replication count and forward
		// counters are run state, not configuration.
		fmt.Fprintf(h, " tc=%v/%v", tc.ReplicateThreshold, tc.PreemptiveThreshold)
	}
	return h.Sum64()
}

// snap walks the header. A version this build does not read stops the
// walk before any field the other version may lay out differently.
func (h *header) snap(c *snap.Codec) {
	snap.I(c, &h.Version)
	if h.Version != SnapshotVersion {
		c.Failf("snapshot version %d, this build reads version %d", h.Version, SnapshotVersion)
	}
	snap.U(c, &h.ConfigHash)
	snap.I(c, &h.Checkpoint)
	snap.I(c, &h.ResumeAt)
	snap.U(c, &h.MaxID)
}

// encodeSnapshot serializes the quiesced cluster plus the endure header
// into one snapshot byte stream. resumeAt is the post-drain instant the
// restored run will continue from.
func encodeSnapshot(c *cluster.Cluster, cfg *cluster.Config, checkpoint int, resumeAt sim.Time) []byte {
	h := header{
		Version:    SnapshotVersion,
		ConfigHash: configHash(cfg),
		Checkpoint: checkpoint,
		ResumeAt:   resumeAt,
		MaxID:      c.Tree().MaxID(),
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

// openSnapshot checks that data can be restored under opt — the
// options themselves, codec checksum, format version, config hash and
// checkpoint cadence — and returns its header and the reader positioned
// at the first cluster section. The fault schedule is not part of the
// hash: shrinking replays snapshots under reduced schedules.
func openSnapshot(opt *Options, data []byte) (*header, *snap.Reader, error) {
	if err := opt.Normalize(); err != nil {
		return nil, nil, err
	}
	hdr, r, err := decodeHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if got := configHash(&opt.Cluster); got != hdr.ConfigHash {
		return nil, nil, fmt.Errorf("endure: snapshot config hash %016x does not match this run's %016x (same workload configuration required)",
			hdr.ConfigHash, got)
	}
	return hdr, r, hdr.position(opt.Every, opt.Cluster.Duration)
}

// position validates the header's checkpoint index against the
// restoring run's cadence: the index names an instant, and the resume
// instant lies between one quiesce drain past it and the next instant.
func (h *header) position(every, duration sim.Time) error {
	instants := Instants(every, duration)
	k := h.Checkpoint
	if k < 0 || k >= len(instants) || h.ResumeAt < instants[k]+cluster.QuiesceDrain ||
		k+1 < len(instants) && h.ResumeAt > instants[k+1] {
		return fmt.Errorf("endure: snapshot checkpoint %d resuming at t=%.3fs does not match cadence %v over %v",
			k, h.ResumeAt.Seconds(), every, duration)
	}
	if k == len(instants)-1 {
		return fmt.Errorf("endure: snapshot is the run's final checkpoint; nothing to resume")
	}
	return nil
}

// ValidateSnapshot checks that path can be restored under opt without
// running any simulation (openSnapshot). A non-nil error is a usage
// error — the file and the flags disagree — so callers treat it like a
// bad flag value (exit 2), not a runtime failure.
func ValidateSnapshot(opt Options, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("endure: %w", err)
	}
	_, _, err = openSnapshot(&opt, data)
	return err
}
