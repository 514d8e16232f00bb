package main

import (
	"fmt"
	"io"
	"time"

	"dynmds/internal/harness"
	"dynmds/internal/plan"
)

// defaultPlan is the default plan as an experiment: its one run is
// reported in full — response times, the open-loop plane, the fabric,
// the deepest service queues, faults and the simfsck verdict — or, with
// a checkpoint cadence, as the endurance plane's degradation curve and
// digest.
func defaultPlan() harness.Experiment {
	d := plan.Default()
	return harness.Experiment{
		ID:          d.Name,
		Description: d.Describe,
		Build: func(opt harness.Options) ([]*plan.Plan, harness.Renderer, error) {
			start := time.Now()
			return []*plan.Plan{d}, func(w io.Writer, runs []harness.PlanRun) error {
				r := &runs[0]
				if r.Endure == nil {
					writeSingle(w, r, start)
					return nil
				}
				harness.WriteEndure(w, r, opt.Restore)
				if r.Fsck == nil {
					fmt.Fprintf(w, "wall time: %v\n", time.Since(start).Round(time.Millisecond))
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
		fmt.Fprintf(w, "memory: plane %.1f B/client structural\n", float64(res.PopFootprint)/float64(res.Clients))
		if r.Cfg.Lease.Enabled {
			fmt.Fprintf(w, "leases: %d grants, %d local hits, recalls %d sent / %d delivered / %d acked, slab+registry %d B\n",
				res.LeaseGrants, res.LeaseHits, res.LeaseRecalls,
				res.LeaseRecalled, res.LeaseAcks, res.LeaseFootprint)
		}
	}
	if r.Cfg.Lease.Fanout {
		fmt.Fprintf(w, "fan-out: %d hot directories pushed to every peer\n", res.ReplicaFanouts)
	}
	fmt.Fprintf(w, "fabric (%s model): %d messages, %d bytes, max link queue %d\n",
		res.Net.Model, res.Net.Messages, res.Net.Bytes, res.Net.MaxQueueDepth)
	// The deepest waiting line per kind of service centre: the
	// saturated resource a latency tail is parked behind.
	q, n := res.MaxQueue, res.MaxQueueNode
	fmt.Fprintf(w, "service queues: cpu max %d (mds%d), read disk max %d (mds%d), log disk max %d (mds%d)\n",
		q[0], n[0], q[1], n[1], q[2], n[2])
	fmt.Fprint(w, res.Net.Table())
	if r.Cfg.Client.RetryTimeout > 0 && res.FaultSchedule == "" {
		// A fault schedule's block prints them otherwise.
		fmt.Fprintf(w, "retries: %d (%d timed out)\n", res.Retries, res.TimedOut)
	}
	fmt.Fprint(w, res.FaultSummary())
	if r.Cfg.Faults != "" && r.Fsck == nil {
		fmt.Fprintln(w, "simfsck: clean") // else the failure block follows
	}
	fmt.Fprintf(w, "wall time: %v (setup %v, run %v)\n",
		time.Since(start).Round(time.Millisecond),
		res.SetupWall.Round(time.Millisecond), res.RunWall.Round(time.Millisecond))
}
