#!/usr/bin/env sh
# Tier-1 gate: vet, build, run the full test suite under the race
# detector and each fuzz target for a fixed budget, then smoke-test the
# figure, chaos, plan, open-loop and endurance surfaces of one built
# mdsim. It measures nothing — performance is `go run ./bench`
# (bench/README.md) — and writes nothing into the checkout. Run from the
# repository root; any failure fails the script.
set -eu
cd "$(dirname "$0")/.."

# The working tree's state going in, so the last step can tell whether
# anything below wrote into the checkout (uncommitted edits are fine).
tree_state() {
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        git status --porcelain
    fi
}
TREE_BEFORE=$(tree_state)

# Scratch space for the steps that write files; nothing goes into the
# checkout.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go vet ./...
go build ./...

# Reachability: every internal package is compiled into mdsim or the
# benchmark (snaptest is the codec's test support), so code that nothing
# runs cannot come back.
go list -deps ./cmd/mdsim ./bench >"$TMP/reached"
for pkg in $(go list ./internal/... | grep -v '/internal/snap/snaptest$'); do
    if ! grep -qxF "$pkg" "$TMP/reached"; then
        echo "ci: $pkg is reached by neither cmd/mdsim nor bench: wire it into a plan or delete it" >&2
        exit 1
    fi
done

# Byte budgets for the documents, to be lowered and never raised: a PR
# that adds a section deletes one (history belongs in CHANGES.md).
budget() {
    size=$(wc -c <"$1")
    if [ "$size" -gt "$2" ]; then
        echo "ci: $1 is $size bytes, over its budget of $2" >&2
        exit 1
    fi
}
budget README.md $((24 * 1024))
budget DESIGN.md $((65 * 1024))

# -race on the small CI box is ~6x slower than native; give packages
# headroom past go test's 10m default so a busy host doesn't flake.
go test -race -timeout 30m ./...

# Native fuzz targets, a fixed 15 s each: a checkpoint file, a fault
# schedule and a plan are outside input, and whatever their bytes the
# code that reads them returns an error or a value that round-trips — no
# panic, no hang. A finding is written under the package's
# testdata/fuzz/ and fails the step (and, left behind, the unchanged-tree
# check below); a clean run writes only to the go build cache. A
# checkpoint is tens of kilobytes, so the fuzzer's default minute of
# minimizing each new input would eat that target's budget.
go test -run '^$' -fuzz '^FuzzRestoreCheckpoint$' -fuzztime 15s -fuzzminimizetime 10x ./internal/endure
go test -run '^$' -fuzz '^FuzzParseSchedule$' -fuzztime 15s ./internal/fault
go test -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 15s ./internal/plan

# Allocation pins once more without the race detector: its runtime skews
# testing.AllocsPerRun and malloc counts, so a pin that has to skip or
# loosen under -race would otherwise never be enforced.
go test -count=1 -run 'Alloc|ZeroAlloc|AllocBudget' ./internal/sim ./internal/cache ./internal/dirstore ./internal/cluster ./internal/mds \
    ./internal/partition ./internal/workload ./internal/snap ./internal/client ./internal/metrics \
    ./internal/fsgen ./internal/namespace
# One iteration of the cache benchmarks the ledger's kernels mirror, of
# the service-centre backlog benchmark the depth-ratio pin runs and of
# the set-up kernels (generate, thaw), so they cannot rot.
go test -run '^$' -bench 'InsertPathEvict|GetHit' -benchtime 1x ./internal/cache
go test -run '^$' -bench 'ServerBacklog' -benchtime 1x ./internal/sim
go test -run '^$' -bench 'Generate|Thaw' -benchtime 1x ./internal/fsgen

# One mdsim, and one built with the race detector, for every invocation
# below: a built binary starts at once and keeps its exit status (go run
# turns every failure into 1).
go build -o "$TMP/mdsim" ./cmd/mdsim
go build -race -o "$TMP/mdsim-race" ./cmd/mdsim
MDSIM="$TMP/mdsim"
RACE="$TMP/mdsim-race"

# A bad override is a usage error, exit status 2, before any event runs.
rc=0
"$MDSIM" -set shards=-3 >"$TMP/usage.out" 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ] || [ -s "$TMP/usage.out" ]; then
    echo "ci: mdsim -set shards=-3 exited $rc (want 2) or wrote to stdout" >&2
    exit 1
fi

# Figure smoke run: exercises the sweep runner, the snapshot cache, and
# the copy-on-write overlay path end to end at reduced scale, under
# both fabric latency models.
"$MDSIM" -plan fig2 -quick
"$MDSIM" -plan fig2 -quick -set net=queued

# Availability experiment under the race detector: fault injection,
# client retries, suspicion-driven failover and log-warmed recovery at
# reduced scale.
"$RACE" -plan avail -quick

# The same experiment over the open loop: the availability series is fed
# where a reply is accepted, whichever client model sent the request, so
# every strategy's row must report a non-zero base rate.
"$MDSIM" -plan avail -quick -set rate=2 -set clients=2000 >"$TMP/avail-open.txt"
if ! awk '$1 == "strategy" { rows = 1; next }
          /^\(wall time/ { rows = 0 }
          rows && NF { n++; if ($2 + 0 == 0) bad++ }
          END { exit !(n > 0 && bad == 0) }' "$TMP/avail-open.txt"; then
    cat "$TMP/avail-open.txt" >&2
    echo "ci: mdsim -plan avail -set rate=2 reports a base ops/s of 0 (or no rows): the open loop does not feed the availability series" >&2
    exit 1
fi

# Chaos fuzz budget under the race detector: 50 fixed-seed random
# fault schedules, each against all five strategies, every finished
# run checked by simfsck. Any invariant violation exits non-zero (and
# prints a shrunk minimal repro with its replay line).
"$RACE" -chaos-runs 50 -seed 1

# Sharded-engine smoke under the race detector: the conservative
# parallel executor at K=4 on the Figure 2 quick config, then a
# 10-schedule chaos batch at K=2 (fault schedules run the windowed
# executor single-threaded, so this checks the deferred/barrier path
# against simfsck rather than goroutine interleaving).
"$RACE" -set mds=4 -set clients=120 -set duration=10s -set warmup=4s -set shards=4
"$RACE" -chaos-runs 10 -seed 1 -set shards=2

# Scenario-plan engine: one library plan end to end under the race
# detector (acts retarget the live population mid-run), then the whole
# library at quick scale.
"$RACE" -plan simfs-campaign -quick
"$MDSIM" -list >/dev/null

# Golden comparison: every experiment and every library plan at quick
# scale must print what testdata/ holds (scripts/regen-golden.sh), bar
# the "(wall time ...)" lines. Seed and network model are fixed, so a
# difference is a behaviour change: explain it and regenerate.
"$MDSIM" -plan figures -quick | grep -v '^(wall time ' >"$TMP/figures_quick.txt"
"$MDSIM" -plan library -quick | grep -v '^(wall time ' >"$TMP/plans_quick.txt"
for g in figures_quick.txt plans_quick.txt; do
    if ! grep -v '^(wall time ' "testdata/$g" | diff - "$TMP/$g"; then
        echo "ci: mdsim output differs from testdata/$g (golden '<', this run '>')" >&2
        exit 1
    fi
done
echo "ci: goldens match"

# Open-loop traffic-plane smoke under the race detector: one million
# flyweight clients through the hierarchical timer wheels at K=4, with
# diurnal and burst modulation on. The arrival rate keeps the total
# budget (~30k ops) under cluster service capacity. The flyweight memory
# gate is TestLeasePlaneFootprint's structural assertion (28 B/client
# as a run leaves it, 45 B with every client answered) plus the
# benchmark's live_heap_mb on open-wide (76 MiB / 2M clients is
# ~40 B/client, namespace and caches included; bound 8%).
"$RACE" -set rate=0.01 -set clients=1e6 -set tenant-skew=1 -set file-skew=1 -set mds=8 -set users=40 \
    -set duration=3s -set warmup=1s -set diurnal=0.3 -set burst-prob=0.05 -set shards=4

# Lease-plane smoke under the race detector: the hotspot duel sweeps
# all four coherence mechanisms (dumb/leases/fanout/both) across both
# subtree strategies with grant, recall, and fan-out traffic live.
"$RACE" -plan hotspot-duel -quick

# Endurance smoke under the race detector: a short aging run with two
# checkpoints, each quiesced, simfsck-checked, and snapshotted.
ENDTMP="$TMP/endure"
mkdir "$ENDTMP"
AGING="-set rate=0.05 -set clients=20000 -set tenant-skew=1 -set file-skew=1 -set duration=5s -set warmup=1s -checkpoint-every 2.5"
"$RACE" $AGING -checkpoint-dir "$ENDTMP"

# Restore determinism assert: resuming from the first snapshot must
# reproduce the uninterrupted run's digest bit for bit.
FULL=$("$MDSIM" $AGING | sed -n 's/^digest: //p')
REST=$("$MDSIM" $AGING -restore "$ENDTMP/ck-000.snap" | sed -n 's/^digest: //p')
if [ -z "$FULL" ] || [ "$FULL" != "$REST" ]; then
    echo "ci: restored endurance run diverged from the uninterrupted run" >&2
    echo "ci:   full:     $FULL" >&2
    echo "ci:   restored: $REST" >&2
    exit 1
fi
echo "ci: endurance restore determinism passed"

# The documents describe the mdsim that exists: none of them may spell a
# flag that -set replaced.
GONE='fig|list-plans|strategy|mds|clients|users|cache|dur|warmup|net-model|link-bw|faults|shards|open-loop|open-rate|open-tenants|tenant-skew|file-skew|diurnal|burst-prob|leases|replica-fanout|endure|chaos-seed'
if grep -rnE "(^|[^[:alnum:]-])-($GONE)([^[:alnum:]-]|\$)" \
    README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; then
    echo "ci: the lines above mention an mdsim flag that no longer exists (use -plan / -set key=value)" >&2
    exit 1
fi

# Nothing above may leave files behind in the checkout: temp output goes
# under mktemp -d, reports go nowhere.
TREE_AFTER=$(tree_state)
if [ "$TREE_BEFORE" != "$TREE_AFTER" ]; then
    echo "ci: the run changed the working tree (git status --porcelain, before then after):" >&2
    echo "$TREE_BEFORE" >&2
    echo "--" >&2
    echo "$TREE_AFTER" >&2
    exit 1
fi
