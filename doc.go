// Package dynmds is a simulation-based reproduction of "Dynamic
// Metadata Management for Petabyte-scale File Systems" (Weil, Pollack,
// Brandt, Miller; SC 2004) — the dynamic subtree partitioning design
// that became the Ceph metadata server.
//
// The public surface is organised as:
//
//   - internal/cluster — assemble and run complete simulations
//   - internal/harness — every paper figure, extension and ablation as a
//     plan
//   - internal/core — dynamic subtree partitioning, load balancing,
//     traffic control (the paper's contribution)
//   - internal/partition — the comparison strategies (static subtree,
//     file/directory hashing, Lazy Hybrid)
//   - internal/{sim,namespace,fsgen,cache,storage,mds,client,workload,
//     metrics,msg} — the substrates
//
// One entry point: cmd/mdsim runs a plan — a figure, an extension, the
// paper's design choices ablated, a library scenario or a plan file
// (mdsim -list). The repository benchmark, go run ./bench, measures the
// simulator itself.
package dynmds
