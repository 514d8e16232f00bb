// Package endure is the endurance plane: long-horizon namespace-aging
// runs over the open-loop population, cut into segments by periodic
// checkpoints. At each checkpoint the cluster quiesces (cluster.Quiesce
// — pause, drain, verify, tombstone GC), the overlay-degradation curve
// gains a row (ops/sec, tombstone density, name-index read-through
// misses per lookup), simfsck validates every cross-structure
// invariant, and the full simulation state is serialized to a versioned
// snapshot file. A run restored from any checkpoint executes the exact
// event sequence of the uninterrupted run from that point on — final
// digests are bit-identical — because the quiesce/resume protocol runs
// identically whether or not a snapshot is written.
package endure

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"dynmds/internal/chaos"
	"dynmds/internal/cluster"
	"dynmds/internal/metrics"
	"dynmds/internal/sim"
)

// DefaultCompactAt stays only for the benchmark's aging driver, whose
// compaction call is a no-op now that the overlay's tombstones are a
// bitset from the first unlink; ROADMAP ledger item (h) deletes it with
// that call.
const DefaultCompactAt = 65536

// Options configures an endurance run.
type Options struct {
	// Cluster is the run configuration; it must use the open-loop
	// traffic plane (cluster.Config.EndureCheck).
	Cluster cluster.Config
	// Every is the checkpoint cadence in virtual time, held to the rules
	// of cluster.Config.Checkpoint. A final checkpoint always lands at
	// Cluster.Duration.
	Every sim.Time
	// Dir is where snapshot files are written (created if missing);
	// empty disables writing (the quiesce protocol still runs, so a run
	// with Dir set and one without are bit-identical).
	Dir string
}

// Normalize checks the options against the cluster's rulebook
// (cluster.Config.Validate) with Every as the checkpoint cadence. It
// changes nothing: a cadence decides when a run is quiesced and
// checked, never what it simulates.
func (o *Options) Normalize() error {
	cfg := o.Cluster
	cfg.Checkpoint = o.Every
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("endure: %w", err)
	}
	return nil
}

// Instants returns the checkpoint instants for a cadence and duration:
// every multiple of the cadence inside the run (none for a cadence that
// is not positive), plus the run's end. A multiple within one quiesce
// drain of the end merges into the final checkpoint — the segment
// between them would hold no serving time (each quiesce consumes a
// drain window of virtual time before the next segment's traffic
// resumes).
func Instants(every, duration sim.Time) []sim.Time {
	var out []sim.Time
	for t := every; t > 0 && t < duration; t += every {
		out = append(out, t)
	}
	if n := len(out); n > 0 && duration-out[n-1] <= cluster.QuiesceDrain {
		out = out[:n-1]
	}
	return append(out, duration)
}

// Row is one point on the overlay-degradation curve, produced at each
// checkpoint before simfsck runs (the checker's own tree walk would
// otherwise pollute the read-through counters).
type Row struct {
	Index int
	At    sim.Time
	// OpsPerSec is completed client ops per virtual second over the
	// segment ending at this checkpoint.
	OpsPerSec float64
	// Tombstones and TombstoneDensity measure overlay aging: destroyed
	// base inodes, absolute and as a fraction of the pristine namespace.
	Tombstones       int
	TombstoneDensity float64
	// LazyMissRate is name-index read-through misses per read-through
	// lookup over the segment (the aged overlay's lookup tax).
	LazyMissRate float64
	// LiveInodes is the namespace size at the checkpoint.
	LiveInodes int
	// Path is the snapshot file, empty when writing is disabled.
	Path string
}

// Result is a finished endurance run, or one cut short by a simfsck
// violation: then Rows ends at the last checkpoint that passed and Res
// is collected where the run stopped.
type Result struct {
	Rows []Row
	// Res is the cluster's result at the end of the run.
	Res *cluster.Result
	// Digest fingerprints the run outcome; restored runs must reproduce
	// the uninterrupted run's digest exactly.
	Digest string
}

// FsckError reports a simfsck violation at a checkpoint; the index
// identifies the snapshot to restart shrinking from.
type FsckError struct {
	Checkpoint int
	At         sim.Time
	Err        error
}

func (e *FsckError) Error() string {
	return fmt.Sprintf("endure: checkpoint %d (t=%.3fs) failed simfsck: %v",
		e.Checkpoint, e.At.Seconds(), e.Err)
}

func (e *FsckError) Unwrap() error { return e.Err }

// Digest fingerprints a run's externally observable outcome. The
// fields match the determinism convention used across the test suite;
// the fabric's are spelled as %+v would print net.Stats.
func Digest(r *cluster.Result) string {
	n := &r.Net
	var b strings.Builder
	fmt.Fprintf(&b, "iss=%d comp=%d ops=%d p50=%x p99=%x p999=%x mean=%x fwd=%x net={Model:%s Messages:%d Bytes:%d Dropped:%d MaxQueueDepth:%d PerClass:[",
		r.Issued, r.Completed, r.MeasuredOps,
		math.Float64bits(r.LatencyP50), math.Float64bits(r.LatencyP99),
		math.Float64bits(r.LatencyP999), math.Float64bits(r.MeanLatency),
		math.Float64bits(r.ForwardFrac), n.Model, n.Messages, n.Bytes, n.Dropped, n.MaxQueueDepth)
	for i, c := range n.PerClass {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "{Sent:%d Delivered:%d Dropped:%d Bytes:%d}", c.Sent, c.Delivered, c.Dropped, c.Bytes)
	}
	b.WriteString("]}")
	return b.String()
}

// runState threads the per-segment bookkeeping through a run.
type runState struct {
	opt      *Options
	c        *cluster.Cluster
	base     chaos.Baseline
	instants []sim.Time
	rows     []Row

	baseInodes int
	// prevResume is when the segment being served started: 0, or the
	// instant the last checkpoint's quiesce ended.
	prevResume    sim.Time
	prevCompleted uint64
	prevLookups   uint64
	prevMisses    uint64
}

// Run executes a fresh endurance run from t=0. On a simfsck violation
// it returns the run so far with an *FsckError.
func Run(opt Options) (*Result, error) {
	if err := opt.Normalize(); err != nil {
		return nil, err
	}
	c, err := cluster.New(opt.Cluster)
	if err != nil {
		return nil, err
	}
	st := newRunState(&opt, c, chaos.Capture(c))
	c.StartEndure()
	return st.runFrom(0)
}

func newRunState(opt *Options, c *cluster.Cluster, base chaos.Baseline) *runState {
	return &runState{
		opt:        opt,
		c:          c,
		base:       base,
		instants:   Instants(opt.Every, opt.Cluster.Duration),
		baseInodes: c.Tree().Len(),
	}
}

// runFrom executes checkpoints from (0-based) index first to the end,
// assuming the cluster is armed and positioned before instants[first].
// A simfsck violation stops the run with what it has so far.
func (st *runState) runFrom(first int) (*Result, error) {
	var err error
	for k := first; k < len(st.instants) && err == nil; k++ {
		if err = st.segment(k); err == nil && k < len(st.instants)-1 {
			st.c.Resume()
		}
	}
	if _, ok := IsFsck(err); err != nil && !ok {
		return nil, err
	}
	res := st.c.Collect()
	return &Result{Rows: st.rows, Res: res, Digest: Digest(res)}, err
}

// segment runs the cluster to checkpoint k and executes the checkpoint
// protocol: quiesce, degradation row, simfsck, snapshot write. The
// caller resumes (except after the final one). The drain must end by the
// next instant (one cadence past the final one): a checkpoint is never
// skipped.
func (st *runState) segment(k int) error {
	c, at := st.c, st.instants[k]
	c.RunTo(at)
	next := at + st.opt.Every
	if k+1 < len(st.instants) {
		next = st.instants[k+1]
	}
	if err := c.QuiesceBy(next); err != nil {
		return fmt.Errorf("endure: checkpoint %d (t=%.3fs): %w", k, at.Seconds(), err)
	}
	row := st.row(k, at)
	st.prevResume = c.Now()
	if err := chaos.Fsck(c, st.base); err != nil {
		return &FsckError{Checkpoint: k, At: at, Err: err}
	}
	// Re-baseline the read-through counters after the checker's walk so
	// its probes don't pollute the next segment's rate.
	st.prevLookups, st.prevMisses = c.Tree().LazyStats()
	if st.opt.Dir != "" {
		path, err := st.writeSnapshot(k)
		if err != nil {
			return err
		}
		row.Path = path
	}
	st.rows = append(st.rows, row)
	return nil
}

// row produces the degradation-curve point for checkpoint k. Call
// after the quiesce and before simfsck.
func (st *runState) row(k int, at sim.Time) Row {
	c := st.c
	tree := c.Tree()
	completed := c.Requests().Completed
	lookups, misses := tree.LazyStats()
	// Serving span: from the previous checkpoint's resume instant.
	seg := at - st.prevResume
	r := Row{
		Index:      k,
		At:         at,
		Tombstones: tree.TombstoneCount(),
		LiveInodes: tree.Len(),
	}
	if seg > 0 {
		r.OpsPerSec = float64(completed-st.prevCompleted) / seg.Seconds()
	}
	if st.baseInodes > 0 {
		r.TombstoneDensity = float64(r.Tombstones) / float64(st.baseInodes)
	}
	if dl := lookups - st.prevLookups; dl > 0 {
		r.LazyMissRate = float64(misses-st.prevMisses) / float64(dl)
	}
	st.prevCompleted = completed
	st.prevLookups, st.prevMisses = lookups, misses
	return r
}

// snapshotPath names checkpoint k's snapshot file inside dir.
func snapshotPath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("ck-%03d.snap", k))
}

func (st *runState) writeSnapshot(k int) (string, error) {
	if err := os.MkdirAll(st.opt.Dir, 0o755); err != nil {
		return "", fmt.Errorf("endure: %w", err)
	}
	path := snapshotPath(st.opt.Dir, k)
	data := encodeSnapshot(st.c, &st.opt.Cluster, k, st.c.Now())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("endure: %w", err)
	}
	return path, nil
}

// Restore resumes an endurance run from a snapshot file. The options
// must describe the same run (the config digest is cross-checked
// against the file header); the run continues through the
// remaining checkpoints to Duration, producing rows for them only, and
// stops at a simfsck violation as Run does.
func Restore(opt Options, path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("endure: %w", err)
	}
	st, hdr, err := load(&opt, data)
	if err != nil {
		return nil, fmt.Errorf("endure: restoring %s: %w", path, err)
	}
	st.c.RunTo(hdr.ResumeAt)
	st.c.Resume()
	return st.runFrom(hdr.Checkpoint + 1)
}

// load builds the cluster opt describes and applies the snapshot in data
// to it: the state of the checkpointing run at the snapshot's instant,
// armed for the rest of the schedule, its clock still at zero.
func load(opt *Options, data []byte) (*runState, *header, error) {
	hdr, r, err := openSnapshot(opt, data)
	if err != nil {
		return nil, nil, err
	}
	c, err := cluster.New(opt.Cluster)
	if err != nil {
		return nil, nil, err
	}
	base := chaos.Capture(c)
	base.PriorMaxID = hdr.MaxID
	// Density rows divide by the pristine tree size; measure it before
	// the restore ages the tree, as newRunState does in a fresh run.
	st := newRunState(opt, c, base)
	// Future-only schedule entries first: their event sequence numbers
	// must precede everything the resume posts, matching the
	// uninterrupted run's t=0 scheduling.
	c.StartEndureRestored(hdr.ResumeAt)
	if err := c.RestoreCheckpoint(r); err != nil {
		return nil, nil, err
	}
	st.prevResume = hdr.ResumeAt
	st.prevCompleted = c.Requests().Completed
	st.prevLookups, st.prevMisses = c.Tree().LazyStats()
	return st, hdr, nil
}

// CurveTable renders the degradation curve as an aligned table.
func (res *Result) CurveTable() string {
	t := metrics.NewTable("t(s)", "ops/s", "tombstones", "density", "lazy-miss", "live")
	for _, r := range res.Rows {
		t.AddRow(
			fmt.Sprintf("%.1f", r.At.Seconds()),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			r.Tombstones,
			fmt.Sprintf("%.4f", r.TombstoneDensity),
			fmt.Sprintf("%.4f", r.LazyMissRate),
			r.LiveInodes,
		)
	}
	return t.String()
}

// Drift returns the throughput degradation over the horizon: 1 −
// last/peak over the curve rows (0 when the last row is the peak, or
// with fewer than two rows).
func (res *Result) Drift() float64 {
	if len(res.Rows) < 2 {
		return 0
	}
	peak := 0.0
	for _, r := range res.Rows {
		if r.OpsPerSec > peak {
			peak = r.OpsPerSec
		}
	}
	last := res.Rows[len(res.Rows)-1].OpsPerSec
	if peak <= 0 || last >= peak {
		return 0
	}
	return 1 - last/peak
}

// IsFsck reports whether err wraps a checkpoint consistency violation
// and returns it.
func IsFsck(err error) (*FsckError, bool) {
	var fe *FsckError
	ok := errors.As(err, &fe)
	return fe, ok
}
