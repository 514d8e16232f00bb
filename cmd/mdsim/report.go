package main

import (
	"fmt"
	"io"
	"time"

	"dynmds/internal/endure"
	"dynmds/internal/harness"
	"dynmds/internal/plan"
)

// defaultPlan is the default plan as an experiment: its one run is
// reported in full — response times, the open-loop plane, the fabric,
// the deepest service queues, faults and the simfsck verdict — or, with
// a checkpoint cadence, as the endurance plane's degradation curve and
// digest, or the soak's verdict.
func defaultPlan() harness.Experiment {
	d := plan.Default()
	return harness.Experiment{
		ID:          d.Name,
		Description: d.Describe,
		Heap:        true,
		Build: func(opt harness.Options) ([]*plan.Plan, harness.Renderer, error) {
			start := time.Now()
			return []*plan.Plan{d}, func(w io.Writer, runs []harness.PlanRun) error {
				r := &runs[0]
				switch {
				case r.Soak != nil:
					writeSoak(w, r, start)
				case r.Endure != nil:
					writeEndure(w, r, opt.Restore, start)
				default:
					writeSingle(w, r, start)
				}
				return nil
			}, nil
		},
	}
}

// writeSingle is the report of a run without a checkpoint cadence.
func writeSingle(w io.Writer, r *harness.PlanRun, start time.Time) {
	res := r.Res
	fmt.Fprintln(w, res)
	fmt.Fprintf(w, "latency: p50 %.3fms p99 %.3fms p999 %.3fms mean %.3fms over %d replies\n",
		res.LatencyP50*1000, res.LatencyP99*1000, res.LatencyP999*1000, res.MeanLatency*1000, res.Replies)
	if res.OpenLoop {
		fmt.Fprintf(w, "open loop: %d clients, issued %d, completed %d\n",
			res.Clients, res.Issued, res.Completed)
		fmt.Fprintf(w, "memory: plane %.1f B/client structural, %.1f B/client heap delta (fs+cluster+plane)\n",
			float64(res.PopFootprint)/float64(res.Clients), float64(r.Heap)/float64(res.Clients))
		if r.Cfg.Lease.Enabled || r.Cfg.Lease.Fanout {
			fmt.Fprintf(w, "leases: %d grants, %d local hits, recalls %d sent / %d delivered / %d acked, %d fanouts, slab+registry %d B\n",
				res.LeaseGrants, res.LeaseHits, res.LeaseRecalls,
				res.LeaseRecalled, res.LeaseAcks, res.ReplicaFanouts, res.LeaseFootprint)
		}
	}
	fmt.Fprintf(w, "fabric (%s model): %d messages, %d bytes, max link queue %d\n",
		res.Net.Model, res.Net.Messages, res.Net.Bytes, res.Net.MaxQueueDepth)
	// The deepest waiting line per kind of service centre: the
	// saturated resource a latency tail is parked behind.
	q, n := res.MaxQueue, res.MaxQueueNode
	fmt.Fprintf(w, "service queues: cpu max %d (mds%d), read disk max %d (mds%d), log disk max %d (mds%d)\n",
		q[0], n[0], q[1], n[1], q[2], n[2])
	fmt.Fprint(w, res.Net.Table())
	fmt.Fprint(w, res.FaultSummary())
	if r.Cfg.Faults != "" {
		if r.Fsck != nil {
			fmt.Fprintf(w, "simfsck: FAIL\n%v\n", r.Fsck)
		} else {
			fmt.Fprintln(w, "simfsck: clean")
		}
	}
	fmt.Fprintf(w, "wall time: %v (setup %v, run %v)\n",
		time.Since(start).Round(time.Millisecond),
		res.SetupWall.Round(time.Millisecond), res.RunWall.Round(time.Millisecond))
}

// writeEndure is the report of an endurance run: a line per checkpoint,
// then the degradation curve, its drift and the run's digest.
func writeEndure(w io.Writer, r *harness.PlanRun, restore string, start time.Time) {
	if restore != "" {
		fmt.Fprintf(w, "restoring from %s\n", restore)
	}
	writeRows(w, r.Endure)
	if fe, ok := endure.IsFsck(r.Fsck); ok {
		fmt.Fprintf(w, "simfsck: FAIL at checkpoint %d\n%v\n", fe.Checkpoint, fe.Err)
		return
	}
	fmt.Fprint(w, r.Endure.CurveTable())
	fmt.Fprintf(w, "degradation drift: %.4f (1 - last/peak ops/s)\n", r.Endure.Drift())
	fmt.Fprintf(w, "digest: %s\n", r.Endure.Digest)
	fmt.Fprintf(w, "wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// writeSoak is the report of a rolling chaos soak: its schedule, then
// the curve of a clean soak, or the failing checkpoint, the shrunk
// schedule and the command that replays it.
func writeSoak(w io.Writer, r *harness.PlanRun, start time.Time) {
	rep := r.Soak
	writeRows(w, rep.Result)
	fmt.Fprintf(w, "soak schedule: %s\n", rep.Schedule)
	if f := rep.Failure; f != nil {
		fmt.Fprintf(w, "soak: FAIL (checkpoint %d)\n%v\n", f.Checkpoint, f.Err)
		if f.Shrunk != "" {
			fmt.Fprintf(w, "shrunk schedule (%d evals): %s\n", f.Evals, f.Shrunk)
		}
		var more []string
		if f.RestartFrom != "" {
			fmt.Fprintf(w, "shrink restarted from checkpoint: %s\n", f.RestartFrom)
			more = []string{"-restore", f.RestartFrom}
		}
		cfg := r.Cfg
		cfg.Faults, cfg.Soak = f.Shrunk, 0
		fmt.Fprintf(w, "repro: %s\n", plan.CommandLine(cfg, more...))
		return
	}
	fmt.Fprint(w, rep.Result.CurveTable())
	fmt.Fprintf(w, "soak: clean — %d checkpoints simfsck-verified, drift %.4f\n",
		len(rep.Result.Rows), rep.Result.Drift())
	fmt.Fprintf(w, "wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// writeRows prints a line per checkpoint that passed.
func writeRows(w io.Writer, res *endure.Result) {
	for _, r := range res.Rows {
		line := fmt.Sprintf("ck %2d t=%6.1fs: %8.0f ops/s, %6d tombstones (%.4f), lazy-miss %.4f, live %7d",
			r.Index, r.At.Seconds(), r.OpsPerSec, r.Tombstones, r.TombstoneDensity,
			r.LazyMissRate, r.LiveInodes)
		if r.Path != "" {
			line += " -> " + r.Path
		}
		fmt.Fprintln(w, line)
	}
}
