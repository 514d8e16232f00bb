#!/usr/bin/env sh
# Tier-1 gate: vet, build, and run the full test suite under the race
# detector, then smoke-test the figure harness and emit a perf report.
# Run from the repository root; any failure fails the script.
set -eu
cd "$(dirname "$0")/.."

go vet ./...
go build ./...
# -race on the small CI box is ~6x slower than native; give packages
# headroom past go test's 10m default so a busy host doesn't flake.
go test -race -timeout 30m ./...

# Allocation pins once more without the race detector: its runtime skews
# testing.AllocsPerRun and malloc counts, so a pin that has to skip or
# loosen under -race would otherwise never be enforced.
go test -count=1 -run 'Alloc|ZeroAlloc|AllocBudget' ./internal/cache ./internal/dirstore ./internal/cluster ./internal/mds
# One iteration of the cache benchmarks the ledger's kernels mirror, so
# they cannot rot.
go test -run '^$' -bench 'InsertPathEvict|GetHit' -benchtime 1x ./internal/cache

# Figure smoke run: exercises the sweep runner, the snapshot cache, and
# the copy-on-write overlay path end to end at reduced scale, under
# both fabric latency models.
go run ./cmd/mdsim -fig 2 -quick
go run ./cmd/mdsim -fig 2 -quick -net-model queued

# Availability experiment under the race detector: fault injection,
# client retries, suspicion-driven failover and log-warmed recovery at
# reduced scale.
go run -race ./cmd/mdsim -fig avail -quick

# Chaos fuzz budget under the race detector: 50 fixed-seed random
# fault schedules, each against all five strategies, every finished
# run checked by simfsck. Any invariant violation exits non-zero (and
# prints a shrunk minimal repro with its replay line).
go run -race ./cmd/mdsim -chaos-runs 50 -chaos-seed 1

# Sharded-engine smoke under the race detector: the conservative
# parallel executor at K=4 on the Figure 2 quick config, then a
# 10-schedule chaos batch at K=2 (fault schedules run the windowed
# executor single-threaded, so this checks the deferred/barrier path
# against simfsck rather than goroutine interleaving).
go run -race ./cmd/mdsim -strategy DynamicSubtree -mds 4 -clients 30 -users 100 -dur 10 -warmup 4 -shards 4
go run -race ./cmd/mdsim -chaos-runs 10 -chaos-seed 1 -shards 2

# Bad knobs must fail fast with a usage error, not start a simulation.
if go run ./cmd/mdsim -net-model bogus -fig 2 -quick 2>/dev/null; then
    echo "ci: unknown -net-model was accepted" >&2
    exit 1
fi
if go run ./cmd/mdsim -faults 'explode@1s:mds0' 2>/dev/null; then
    echo "ci: unknown -faults schedule was accepted" >&2
    exit 1
fi
if go run ./cmd/mdsim -shards -3 2>/dev/null; then
    echo "ci: negative -shards was accepted" >&2
    exit 1
fi
if go run ./cmd/mdsim -leases 2>/dev/null; then
    echo "ci: -leases without -open-loop was accepted" >&2
    exit 1
fi

# Scenario-plan engine: one library plan end to end under the race
# detector (acts retarget the live population mid-run), then the whole
# library at quick scale with the per-act bench report.
go run -race ./cmd/mdsim -plan simfs-campaign -quick
go run ./cmd/mdsim -list-plans >/dev/null
go run ./cmd/mdsim -plan all -quick -plan-json BENCH_8.json

# Bad plans must fail fast with a usage error before any event runs,
# exactly like bad -faults/-net-model knobs.
PLANTMP=$(mktemp -d)
trap 'rm -rf "$PLANTMP"' EXIT
cat > "$PLANTMP/bad-kind.plan" <<'EOF'
plan bad-kind
traffic clients=100 rate=1
duration 10s
act surge a @1s-2s
EOF
cat > "$PLANTMP/bad-overlap.plan" <<'EOF'
plan bad-overlap
traffic clients=100 rate=1
duration 10s
act phase a @1s-5s
act phase b @4s-6s
EOF
cat > "$PLANTMP/bad-rate.plan" <<'EOF'
plan bad-rate
traffic clients=100 rate=1
duration 10s
act phase a @1s-2s rate=x0
EOF
cat > "$PLANTMP/bad-hotspot.plan" <<'EOF'
plan bad-hotspot
fs users=8
traffic clients=100 rate=1
duration 10s
act hotspot a @1s-2s target=/no/such/path frac=0.5
EOF
for bad in bad-kind bad-overlap bad-rate bad-hotspot; do
    if go run ./cmd/mdsim -plan "$PLANTMP/$bad.plan" -quick 2>/dev/null; then
        echo "ci: $bad.plan was accepted" >&2
        exit 1
    fi
done
if go run ./cmd/mdsim -plan no-such-plan 2>/dev/null; then
    echo "ci: unknown -plan name was accepted" >&2
    exit 1
fi

# Open-loop traffic-plane smoke under the race detector: one million
# flyweight clients through the hierarchical timer wheels at K=4, with
# diurnal and burst modulation on. The arrival rate keeps the total
# budget (~30k ops) under cluster service capacity.
go run -race ./cmd/mdsim -open-loop 1000000 -open-rate 0.01 -mds 8 -users 40 \
    -dur 3 -warmup 1 -diurnal 0.3 -burst-prob 0.05 -shards 4

# Open-loop perf report (quick scale in CI; regenerate the committed
# BENCH_7.json with a full-scale run, which adds the 10M-client row:
# `go run ./cmd/mdsim -bench7-json BENCH_7.json`).
go run ./cmd/mdsim -bench7-json BENCH_7.quick.json -quick

# Flyweight memory gate: end-to-end heap delta per client at one
# million clients must stay at or under 64 bytes. The structural plane
# is ~41 B/client; the gate leaves headroom for pools and fs state
# while still forbidding any per-client boxed object from sneaking in.
BPC=$(awk '/"clients": 1000000,/{f=1} f && /"heap_bytes_per_client"/{gsub(/[",]/,""); print $2; exit}' BENCH_7.quick.json)
if [ -z "$BPC" ]; then
    echo "ci: no 1M-client heap_bytes_per_client in BENCH_7.quick.json" >&2
    exit 1
fi
if awk "BEGIN{exit !($BPC <= 64)}"; then
    echo "ci: open-loop heap ${BPC} B/client at 1M clients (gate: <= 64)"
else
    echo "ci: open-loop heap ${BPC} B/client at 1M clients exceeds the 64 B gate" >&2
    exit 1
fi

# Lease-plane smoke under the race detector: the hotspot duel sweeps
# all four coherence mechanisms (dumb/leases/fanout/both) across both
# subtree strategies with grant, recall, and fan-out traffic live.
go run -race ./cmd/mdsim -plan hotspot-duel -quick

# Hotspot-duel perf report (quick scale in CI; regenerate the committed
# BENCH_9.json with a full-scale run, which adds the 1M-client rows:
# `go run ./cmd/mdsim -bench9-json BENCH_9.json`).
go run ./cmd/mdsim -bench9-json BENCH_9.quick.json -quick

# Lease memory gate: the per-client traffic-plane footprint at 100k
# clients must stay at or under 64 B with the lease plane off and 96 B
# with it on. The lease slab costs exactly 24 B/client (two 12 B
# slots); the gates leave the same pool/fs headroom as the BENCH_7
# flyweight gate while forbidding any per-client boxed lease state.
awk '
/"mechanism":/ { gsub(/[",]/, ""); mech = $2 }
/"clients":/   { gsub(/[",]/, ""); cli = $2 }
/"plane_bytes_per_client":/ {
    gsub(/[",]/, ""); bpc = $2
    lim = (mech == "dumb" || mech == "fanout") ? 64 : 96
    if (cli == 100000) {
        seen++
        if (bpc > lim) {
            printf "ci: %s plane %s B/client at 100k clients exceeds the %d B gate\n", mech, bpc, lim
            bad = 1
        }
    }
}
END {
    if (seen < 4) { print "ci: missing 100k-client rows in BENCH_9.quick.json"; bad = 1 }
    exit bad
}' BENCH_9.quick.json
echo "ci: lease plane footprint gates passed (<= 64 B off / <= 96 B on at 100k clients)"

# Endurance smoke under the race detector: a short aging run with two
# checkpoints, each quiesced, simfsck-checked, and snapshotted.
ENDTMP=$(mktemp -d)
go run -race ./cmd/mdsim -open-loop 20000 -open-rate 0.05 -mds 4 -clients 40 \
    -dur 5 -warmup 1 -endure -checkpoint-every 2.5 -checkpoint-dir "$ENDTMP"

# Restore determinism assert: resuming from the first snapshot must
# reproduce the uninterrupted run's digest bit for bit.
FULL=$(go run ./cmd/mdsim -open-loop 20000 -open-rate 0.05 -mds 4 -clients 40 \
    -dur 5 -warmup 1 -endure -checkpoint-every 2.5 | sed -n 's/^digest: //p')
REST=$(go run ./cmd/mdsim -open-loop 20000 -open-rate 0.05 -mds 4 -clients 40 \
    -dur 5 -warmup 1 -endure -checkpoint-every 2.5 -restore "$ENDTMP/ck-000.snap" | sed -n 's/^digest: //p')
rm -rf "$ENDTMP"
if [ -z "$FULL" ] || [ "$FULL" != "$REST" ]; then
    echo "ci: restored endurance run diverged from the uninterrupted run" >&2
    echo "ci:   full:     $FULL" >&2
    echo "ci:   restored: $REST" >&2
    exit 1
fi
echo "ci: endurance restore determinism passed"

# Endurance knobs must fail fast with usage errors (exit 2), matching
# the -faults/-plan convention.
if go run ./cmd/mdsim -checkpoint-every 2 2>/dev/null; then
    echo "ci: -checkpoint-every without -endure was accepted" >&2
    exit 1
fi
if go run ./cmd/mdsim -open-loop 1000 -endure -checkpoint-every 0 2>/dev/null; then
    echo "ci: -endure with zero -checkpoint-every was accepted" >&2
    exit 1
fi

# Endurance perf report: degradation curves with the tombstone-GC fix
# off and on, restore bit-identity at K=0 and K=4, and a rolling chaos
# soak with simfsck at every checkpoint (quick scale in CI; regenerate
# the committed BENCH_10.json with a full-scale run:
# `go run ./cmd/mdsim -bench10-json BENCH_10.json`). The run itself
# fails on any restore divergence or soak violation.
go run ./cmd/mdsim -bench10-json BENCH_10.quick.json -quick

# Drift gates over the soak horizon: ops/sec at the last checkpoint may
# not fall more than 15% below the peak across the rolling crash
# cycles, and the compaction-fixed aging curve must stay within 5%.
awk '
/"fixed_drift":/ { gsub(/[",]/, ""); fixed = $2 }
/"drift":/       { gsub(/[",]/, ""); soak = $2 }
END {
    if (fixed == "" || soak == "") { print "ci: missing drift fields in BENCH_10.quick.json"; exit 1 }
    if (fixed > 0.05) { printf "ci: aged ops/s drift %s with compaction on exceeds the 5%% gate\n", fixed; exit 1 }
    if (soak > 0.15)  { printf "ci: soak ops/s drift %s exceeds the 15%% gate\n", soak; exit 1 }
    printf "ci: endurance drift gates passed (aged %s <= 0.05, soak %s <= 0.15)\n", fixed, soak
}' BENCH_10.quick.json

# Perf report (quick scale in CI; regenerate the committed BENCH_6.json
# with a full-scale run: `go run ./cmd/mdsim -bench-json BENCH_6.json
# -shards 8`). Includes the serial-vs-sharded measurement of the bench
# config and the chaos budget's pass/shrink stats; a chaos violation
# fails the bench.
go run ./cmd/mdsim -bench-json BENCH_6.quick.json -quick -shards 4

# Scaling gate: with >= 4 real cores, the sharded engine at K=4 must
# beat serial by >= 1.8x on the bench config. On smaller machines the
# target is unobservable (shards time-slice one core), so the gate is
# skipped with a log line; the bench above still records the honest
# shards/cores/speedup numbers.
CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$CORES" -ge 4 ]; then
    SPEEDUP=$(sed -n 's/.*"sharded_speedup": \([0-9.]*\).*/\1/p' BENCH_6.quick.json)
    if [ -z "$SPEEDUP" ]; then
        echo "ci: no sharded_speedup in BENCH_6.quick.json" >&2
        exit 1
    fi
    if awk "BEGIN{exit !($SPEEDUP >= 1.8)}"; then
        echo "ci: sharded K=4 speedup ${SPEEDUP}x on $CORES cores (gate: >= 1.8x)"
    else
        echo "ci: sharded K=4 speedup ${SPEEDUP}x < 1.8x on $CORES cores" >&2
        exit 1
    fi
else
    echo "ci: $CORES core(s) detected; skipping the K=4 >= 1.8x scaling gate (needs >= 4)"
fi
