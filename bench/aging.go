package main

import (
	"fmt"
	"os"
	"path/filepath"

	"dynmds/internal/chaos"
	"dynmds/internal/cluster"
	"dynmds/internal/endure"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

// runOutput is what the measured window of a repetition produced.
type runOutput struct {
	res               *cluster.Result
	loopWall, loopCPU float64 // inside Cluster.Run / RunTo only
	failures          []string
	// hooks is how many events of its own the benchmark put on the engine
	// to mark slice boundaries; sim.events does not count them.
	hooks int

	// Endurance cycle only.
	dir       string // checkpoint scratch directory
	paths     []string
	resumeAt  []sim.Time
	maxID     []namespace.InodeID
	quiesce   timing
	fsck      timing
	encode    timing
	snapBytes int // all checkpoints written
	readBytes int // the one checkpoint restored
	decode    timing
	rerun     timing
}

// layers writes the endurance spans; every field is zero, and the values
// null, on workloads that never checkpoint.
func (o *runOutput) layers(l layerValues) {
	if o.dir == "" {
		for _, name := range []string{"endure.quiesce_s", "snap.encode_s", "snap.decode_s", "snap.bytes",
			"snap.codec.mb_per_s", "chaos.fsck_s", "endure.restore_run_s"} {
			l.null(name)
		}
		return
	}
	l.set("endure.quiesce_s", o.quiesce.CPU)
	l.set("chaos.fsck_s", o.fsck.CPU)
	l.set("snap.encode_s", o.encode.CPU)
	l.set("snap.bytes", float64(o.snapBytes))
	l.set("snap.decode_s", o.decode.CPU)
	l.set("endure.restore_run_s", o.rerun.CPU)
	if t := o.encode.CPU + o.decode.CPU; t > 0 {
		// Bytes through the codec in both directions over the time in it.
		l.set("snap.codec.mb_per_s", float64(o.snapBytes+o.readBytes)/1e6/t)
	}
}

func (o *runOutput) cleanup() {
	if o.dir != "" {
		os.RemoveAll(o.dir) // scratch only; a leftover is harmless and ignored by git
	}
}

func (t *timing) add(u timing) { t.Wall += u.Wall; t.CPU += u.CPU }

// compactAt is the tombstone count at which the overlay switches to its
// bitset, as the endurance runner does by default.
const compactAt = endure.DefaultCompactAt

// checkpoint runs the checkpoint protocol at the current instant, the way
// internal/endure does, with a span around every public call: quiesce,
// tombstone compaction, simfsck, and (when dir is set) encode and write.
func checkpoint(rec *recorder, o *runOutput, c *cluster.Cluster, base chaos.Baseline, k int, write bool) error {
	var err error
	o.quiesce.add(rec.Span("cluster.Quiesce", func() { err = c.Quiesce() }))
	if err != nil {
		return fmt.Errorf("checkpoint %d: %w", k, err)
	}
	if tree := c.Tree(); !tree.TombstonesCompacted() && tree.TombstoneCount() >= compactAt {
		tree.CompactTombstones()
	}
	o.fsck.add(rec.Span("chaos.Fsck", func() { err = chaos.Fsck(c, base) }))
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("checkpoint %d (t=%v): %v", k, c.Now(), err))
	}
	if !write {
		return nil
	}
	var data []byte
	o.encode.add(rec.Span("cluster.CheckpointTo", func() {
		w := snap.NewWriter()
		c.CheckpointTo(w)
		data = w.Bytes()
	}))
	o.snapBytes += len(data)
	path := filepath.Join(o.dir, fmt.Sprintf("ck-%03d.snap", k))
	rec.Span("os.WriteFile", func() { err = os.WriteFile(path, data, 0o644) })
	if err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	o.paths = append(o.paths, path)
	o.resumeAt = append(o.resumeAt, c.Now())
	o.maxID = append(o.maxID, c.Tree().MaxID())
	return nil
}

// runAging is the measured window of aging-churn: the run cut into
// segments by checkpoints, every checkpoint quiesced, checked by simfsck,
// serialized and written, then resumed.
func runAging(rec *recorder, b *built, every sim.Time, outDir string, mark func()) (*runOutput, error) {
	c := b.c
	if err := c.EndureCheck(); err != nil {
		return nil, err
	}
	o := &runOutput{}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating output directory: %w", err)
	}
	dir, err := os.MkdirTemp(outDir, "ck-")
	if err != nil {
		return nil, fmt.Errorf("creating checkpoint directory: %w", err)
	}
	o.dir = dir
	base := chaos.Capture(c)
	c.StartEndure()
	if err := runSegments(rec, o, c, base, endure.Instants(every, b.cfg.Duration), 0, mark); err != nil {
		return nil, err
	}
	return o, nil
}

// segmentSteps is how many RunTo steps each segment between checkpoints is
// advanced in; mark is called after every step and after every checkpoint,
// so the slices of an aging run are its steps and its checkpoints.
const segmentSteps = 4

// runSegments advances c through instants[first:], checkpointing at each
// and resuming after all but the last. A nil mark is the restored run:
// one step per segment, nothing written, nothing charged to the window.
func runSegments(rec *recorder, o *runOutput, c *cluster.Cluster, base chaos.Baseline, instants []sim.Time, first int, mark func()) error {
	measured := mark != nil
	for k := first; k < len(instants); k++ {
		steps := sim.Time(1)
		if measured {
			steps = segmentSteps
		}
		from := c.Now()
		for i := sim.Time(1); i <= steps; i++ {
			to := from + (instants[k]-from)*i/steps
			t := rec.Span("cluster.RunTo", func() { c.RunTo(to) })
			if measured {
				o.loopWall += t.Wall
				o.loopCPU += t.CPU
				mark()
			}
		}
		if err := checkpoint(rec, o, c, base, k, measured); err != nil {
			return err
		}
		if k < len(instants)-1 {
			rec.Span("cluster.Resume", c.Resume)
		}
		if measured {
			mark()
		}
	}
	return nil
}

// restoreAging rebuilds the cluster, restores the third checkpoint (the
// last but one, when the run has fewer), runs to the end under the same
// protocol, and requires the digest of the uninterrupted run. SimFS's
// rule: any interval must be re-simulable from the nearest checkpoint.
func restoreAging(rec *recorder, res *repResult, b *built, o *runOutput, every sim.Time) error {
	instants := endure.Instants(every, b.cfg.Duration)
	k := 2
	if k > len(instants)-2 {
		k = len(instants) - 2
	}
	if k < 0 {
		return fmt.Errorf("aging run has %d checkpoints, none to restore from", len(instants))
	}
	data, err := os.ReadFile(o.paths[k])
	if err != nil {
		return fmt.Errorf("reading checkpoint: %w", err)
	}
	o.readBytes = len(data)
	c, err := cluster.New(b.cfg)
	if err != nil {
		return fmt.Errorf("rebuilding cluster: %w", err)
	}
	if err := c.EndureCheck(); err != nil {
		return err
	}
	base := chaos.Capture(c)
	base.PriorMaxID = o.maxID[k]
	c.StartEndureRestored(o.resumeAt[k])
	o.decode = rec.Span("cluster.RestoreCheckpoint", func() {
		var r *snap.Reader
		if r, err = snap.NewReader(data); err == nil {
			err = c.RestoreCheckpoint(r)
		}
	})
	if err != nil {
		return fmt.Errorf("restoring checkpoint %d: %w", k, err)
	}
	if tree := c.Tree(); !tree.TombstonesCompacted() && tree.TombstoneCount() >= compactAt {
		tree.CompactTombstones()
	}
	var restored runOutput
	o.rerun = rec.Span("restored-run", func() {
		c.RunTo(o.resumeAt[k])
		c.Resume()
		err = runSegments(rec, &restored, c, base, instants, k+1, nil)
	})
	if err != nil {
		return err
	}
	for _, f := range restored.failures {
		res.failf("restored run: %s", f)
	}
	res.RestoreDigest = endure.Digest(c.Collect())
	if res.RestoreDigest != res.Digest {
		res.failf("restored run digest differs from the uninterrupted run:\n  run      %s\n  restored %s", res.Digest, res.RestoreDigest)
	}
	return nil
}
