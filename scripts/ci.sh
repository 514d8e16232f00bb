#!/usr/bin/env sh
# Tier-1 gate: vet, build, run the full test suite under the race
# detector and each fuzz target for a fixed budget, then run what go test
# cannot: one built mdsim on the queued fabric, the open loop, and the
# endurance plane, checkpoint files and soak included. It measures
# nothing — performance is `go run ./bench` (bench/README.md) — and
# writes nothing into the checkout. Run from the repository root; any
# failure fails the script.
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

# Where int is 32 bits wide the module builds too: no untyped constant
# past 2^31 lands in an int.
GOARCH=386 go build ./...

# No fused multiply-add in the module's code on arm64. Go may fuse x*y+z
# into one instruction that rounds once, unless the product is rounded
# explicitly (float64(x*y)); the low bits it moves reach digests and
# goldens. amd64 (GOAMD64=v1) never fuses, so only the arm64 build can
# show one.
GOARCH=arm64 go build -o "$TMP/mdsim-arm64" ./cmd/mdsim
FUSED=$(go tool objdump "$TMP/mdsim-arm64" |
    awk '/^TEXT / { sym = $2 } sym ~ /^dynmds\// && /[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[SD]?[[:space:]]/ { print sym }' | sort -u)
if [ -n "$FUSED" ]; then
    echo "$FUSED" >&2
    echo "ci: the functions above fuse a multiply-add on arm64 (round the product: float64(x*y))" >&2
    exit 1
fi

# Every Go file, testdata fixtures included, is as gofmt writes it.
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "$UNFORMATTED" >&2
    echo "ci: the files above are not gofmt-formatted (gofmt -w them)" >&2
    exit 1
fi

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
budget DESIGN.md 56235

# -race on the small CI box is ~6x slower than native; give packages
# headroom past go test's 10m default so a busy host doesn't flake.
# cmd/mdsim's TestGoldens runs every library plan at quick scale and the
# seed-1 chaos budget, and internal/harness's quick smoke tests every
# experiment, here under the race detector, and diff them against
# testdata/ (scripts/regen-golden.sh writes it). The
# root package's TestSurface is the reachability and unused-identifier
# gate: every internal package is reached by mdsim or the benchmark,
# every identifier by non-test code, (rule 4) no config field is set
# only by a defaulting function to one constant, and (rule 5) no struct
# field is written by non-test code and never read.
go test -race -timeout 30m ./...

# Native fuzz targets, a fixed 15 s each: a checkpoint file, a fault
# schedule and a plan are outside input, and whatever their bytes the
# code that reads them returns an error or a value that round-trips — no
# panic, no hang; whatever program schedules and runs events, the
# engine dispatches them in the order a sorted-slice reference does;
# whatever the seed, sim.RNG draws what math/rand seeded with it does;
# and whatever creates, unlinks and renames an overlay sees, its name
# index agrees with its child lists and survives a checkpoint. A
# finding is written under the package's testdata/fuzz/ and fails the
# step (and, left behind, the unchanged-tree check below); a clean run
# writes only to the go build cache. A
# checkpoint is tens of kilobytes, so the fuzzer's default minute of
# minimizing each new input would eat that target's budget.
go test -run '^$' -fuzz '^FuzzRestoreCheckpoint$' -fuzztime 15s -fuzzminimizetime 10x ./internal/endure
go test -run '^$' -fuzz '^FuzzParseSchedule$' -fuzztime 15s ./internal/fault
go test -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 15s ./internal/plan
go test -run '^$' -fuzz '^FuzzEngineOrder$' -fuzztime 15s ./internal/sim
go test -run '^$' -fuzz '^FuzzRNGMatchesMathRand$' -fuzztime 15s ./internal/sim
go test -run '^$' -fuzz '^FuzzOverlayNames$' -fuzztime 15s -fuzzminimizetime 10x ./internal/namespace

# Allocation pins once more without the race detector: its runtime skews
# testing.AllocsPerRun and malloc counts, so a pin that has to skip or
# loosen under -race would otherwise never be enforced.
go test -count=1 -run 'Alloc|ZeroAlloc|AllocBudget' ./internal/sim ./internal/cache ./internal/cluster ./internal/mds \
    ./internal/partition ./internal/workload ./internal/snap ./internal/client ./internal/metrics \
    ./internal/fsgen ./internal/namespace ./internal/storage ./internal/chaos ./internal/core ./internal/net \
    ./internal/osd
# One iteration of the cache and authority benchmarks the ledger's
# kernels mirror (and of hits spread over a 300k-inode namespace, where
# an index sized by the highest ID misses L2), of the service-centre
# backlog benchmark the depth-ratio pin runs, of the set-up kernels
# (generate, thaw), of the namespace churn kernel and of the moved-set
# and journal-append kernels, so they cannot rot.
go test -run '^$' -bench 'InsertPathEvict|GetHit$|GetHitSpread' -benchtime 1x ./internal/cache
go test -run '^$' -bench 'MovedSetChurn' -benchtime 1x ./internal/namespace
go test -run '^$' -bench 'LogAppend' -benchtime 1x ./internal/storage
go test -run '^$' -bench 'SubtreeAuthority' -benchtime 1x ./internal/partition
go test -run '^$' -bench 'ServerBacklog' -benchtime 1x ./internal/sim
go test -run '^$' -bench 'Generate|Thaw|OverlayChurn' -benchtime 1x ./internal/fsgen

# One mdsim, and one built with the race detector, for every invocation
# below: a built binary starts at once and keeps its exit status (go run
# turns every failure into 1).
go build -o "$TMP/mdsim" ./cmd/mdsim
go build -race -o "$TMP/mdsim-race" ./cmd/mdsim
MDSIM="$TMP/mdsim"
RACE="$TMP/mdsim-race"

# The fabric's queued model on a figure: per-link serialization delay
# on every hop of the sweep.
"$MDSIM" -plan fig2 -quick -set net=queued

# The availability experiment over the open loop: the availability
# series is fed where a reply is accepted, whichever client model sent
# the request, so every strategy's row must report a non-zero base rate.
"$MDSIM" -plan avail -quick -set rate=2 -set clients=2000 >"$TMP/avail-open.txt"
if ! awk '$1 == "strategy" { rows = 1; next }
          /^\(wall time/ { rows = 0 }
          rows && NF { n++; if ($2 + 0 == 0) bad++ }
          END { exit !(n > 0 && bad == 0) }' "$TMP/avail-open.txt"; then
    cat "$TMP/avail-open.txt" >&2
    echo "ci: mdsim -plan avail -set rate=2 reports a base ops/s of 0 (or no rows): the open loop does not feed the availability series" >&2
    exit 1
fi

# Open-loop traffic-plane smoke under the race detector: one million
# flyweight clients through the hierarchical timer wheel, with diurnal
# and burst modulation on. The arrival rate keeps the total budget (~30k
# ops) under cluster service capacity. Only ~3 % of the clients can
# arrive in the 3 s run, so only they are given a hint-table word and a
# pooled wheel node: the plane reports 2.2 B/client, and the step fails
# above 2.4 (+10 %). The other flyweight memory gates are
# TestPopulationHeapBytesPerClient (11 heap B/client dense, 1.8 sparse),
# TestLeasePlaneFootprint's structural assertion (4.8 B/client as a run
# leaves it and 34 B with every client answered; 31.2 and 61 B with the
# lease slab) and the benchmark's live_heap_mb on open-wide (~19 MiB /
# 2M clients is ~10 B/client, namespace and caches included; bound 8%).
"$RACE" -set rate=0.01 -set clients=1e6 -set tenant-skew=1 -set file-skew=1 -set mds=8 -set users=40 \
    -set duration=3s -set warmup=1s -set diurnal=0.3 -set burst-prob=0.05 >"$TMP/smoke.txt"
if ! awk '/^memory: plane / { found = 1; if ($3 + 0 > 2.4) bad = 1 }
          END { exit !(found && !bad) }' "$TMP/smoke.txt"; then
    cat "$TMP/smoke.txt" >&2
    echo "ci: the 1M-client open-loop smoke holds more than 2.4 plane B/client (or reports none)" >&2
    exit 1
fi

# Endurance smoke under the race detector: a short aging run with two
# checkpoints (the checkpoint key), each quiesced, simfsck-checked, and
# snapshotted. The cadence only checks the run; the churn mix ages it,
# so the last checkpoint must report tombstones.
ENDTMP="$TMP/endure"
mkdir "$ENDTMP"
CHURN="-set mix=stat:55,readdir:10,chmod:5,create:12,rename:3,unlink:15"
AGING="-set rate=0.05 -set clients=20000 -set tenant-skew=1 -set file-skew=1 -set duration=5s -set warmup=1s -set checkpoint=2.5s $CHURN"
"$RACE" $AGING -checkpoint-dir "$ENDTMP" >"$TMP/aging.txt"
TOMBS=$(grep '^ck ' "$TMP/aging.txt" | tail -1 | sed -n 's/.* \([0-9][0-9]*\) tombstones.*/\1/p')
if [ -z "$TOMBS" ] || [ "$TOMBS" -eq 0 ]; then
    cat "$TMP/aging.txt" >&2
    echo "ci: the aging run's last checkpoint reports no tombstones: it aged nothing" >&2
    exit 1
fi
echo "ci: the aging run tombstoned $TOMBS base files"

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

# Fan-out and leases are traffic control's directory and lease rules on
# any strategy: a StaticSubtree aging run with either (one tenant, a
# steep file skew, so a directory and its files get hot) checkpoints a
# traffic-control section, and restoring its ck-000 or ck-001 reproduces
# its digest. The leases run grants ~2 200 leases and recalls ~440.
for MECH in fanout leases; do
    HOT="-set rate=0.05 -set clients=20000 -set tenants=1 -set tenant-skew=1 -set file-skew=2 -set duration=8s -set warmup=1s -set checkpoint=2.5s $CHURN -set mechanism=$MECH -set strategy=StaticSubtree"
    HOTFULL=$("$MDSIM" $HOT -checkpoint-dir "$TMP/$MECH" | sed -n 's/^digest: //p')
    for k in 0 1; do
        HOTREST=$("$MDSIM" $HOT -restore "$TMP/$MECH/ck-00$k.snap" | sed -n 's/^digest: //p')
        if [ -z "$HOTFULL" ] || [ "$HOTFULL" != "$HOTREST" ]; then
            echo "ci: the $MECH aging run restored from ck-00$k diverged" >&2
            echo "ci:   full:     $HOTFULL" >&2
            echo "ci:   restored: $HOTREST" >&2
            exit 1
        fi
    done
    echo "ci: the $MECH aging run restores"
done

# The same keys written as a plan file are the same run, and the plan
# report carries its endurance half: the digest must match.
cat >"$TMP/aging.plan" <<'EOF'
plan aging
fs users=100
cluster mds=4 strategy=DynamicSubtree cache=2000 net=fixed
traffic clients=20000 rate=0.05 tenant-skew=1 file-skew=1 mix=stat:55,readdir:10,chmod:5,create:12,rename:3,unlink:15
warmup 1s
duration 5s
checkpoint 2.5s
EOF
PLANNED=$("$MDSIM" -plan "$TMP/aging.plan" | sed -n 's/^digest: //p')
if [ "$FULL" != "$PLANNED" ]; then
    echo "ci: the aging run as a plan file diverged from the same keys given by -set" >&2
    echo "ci:   -set: $FULL" >&2
    echo "ci:   plan: $PLANNED" >&2
    exit 1
fi
echo "ci: the aging plan file reports the same digest"

# Soak smoke under the race detector: soak=4 is a rolling fault schedule
# that crashes and recovers nodes 1-3 in turn four times over the run,
# and a checkpoint that fails simfsck exits 1. The soak is the run of
# the same keys with that schedule as faults: four checkpoint rows, that
# run's digest, and the same digest restored from its ck-001.snap.
SOAK="-set rate=0.03 -set clients=20000 -set users=60 -set duration=10s -set warmup=1s -set checkpoint=2.5s $CHURN"
"$RACE" $SOAK -set soak=4 -checkpoint-dir "$TMP/soak" >"$TMP/soak.txt"
SCHED=$(sed -n 's/^faults: //p' "$TMP/soak.txt")
SOAKED=$(sed -n 's/^digest: //p' "$TMP/soak.txt")
FAULTED=$("$MDSIM" $SOAK -set faults="$SCHED" | sed -n 's/^digest: //p')
RESUMED=$("$MDSIM" $SOAK -set soak=4 -restore "$TMP/soak/ck-001.snap" | sed -n 's/^digest: //p')
if [ "$(grep -c '^ck ' "$TMP/soak.txt")" != 4 ] || [ -z "$SOAKED" ] ||
    [ "$SOAKED" != "$FAULTED" ] || [ "$SOAKED" != "$RESUMED" ]; then
    cat "$TMP/soak.txt" >&2
    echo "ci: the soak smoke is not the faulted run of its schedule" >&2
    echo "ci:   faults=$SCHED: $FAULTED" >&2
    echo "ci:   restored from ck-001: $RESUMED" >&2
    exit 1
fi
echo "ci: the soak is its fault schedule, and restores"

# The largest cluster Validate accepts: each of its 64 nodes has a bit
# in the replica set and the unflushed-writer masks, so a faulted run of
# that size must check clean.
"$MDSIM" -set mds=64 -set duration=2s -set warmup=1s -set faults=drop@0:all >"$TMP/widest.txt" || true
if ! grep -qx 'simfsck: clean' "$TMP/widest.txt"; then
    cat "$TMP/widest.txt" >&2
    echo "ci: a faulted run on 64 MDSs does not check clean" >&2
    exit 1
fi
echo "ci: a faulted run on 64 MDSs checks clean"

# The open-loop drain across the chaos budget: 250 faulted cells at
# rate=20, whose loaded nodes hold fetch backlogs past the drain
# window, must each drain and check clean (TestGoldens runs only the
# closed-loop seed-1 budget).
"$MDSIM" -plan chaos -seed 2 -set rate=20 >"$TMP/chaos-open.txt" || true
if ! grep -q ' failed=0 ' "$TMP/chaos-open.txt"; then
    cat "$TMP/chaos-open.txt" >&2
    echo "ci: an open-loop chaos cell (seed 2, rate=20) failed simfsck" >&2
    exit 1
fi
echo "ci: the open-loop chaos budget drains and checks clean"

# The documents describe the mdsim that exists: none of them may spell a
# flag that -set replaced or that was deleted.
GONE='fig|list-plans|strategy|mds|clients|users|cache|dur|warmup|net-model|link-bw|faults|shards|open-loop|open-rate|open-tenants|tenant-skew|file-skew|diurnal|burst-prob|leases|replica-fanout|endure|chaos-seed|compact-at|checkpoint-every|soak-cycles|chaos-runs|chaos-intensity'
if grep -rnE "(^|[^[:alnum:]-])-($GONE)([^[:alnum:]-]|\$)" \
    README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; then
    echo "ci: the lines above mention an mdsim flag that no longer exists (use -plan / -set key=value, or drop it)" >&2
    exit 1
fi
# Nor a -set key that was deleted.
if grep -rnE "(^|[^[:alnum:]-])(shards|link-bw)=" \
    README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; then
    echo "ci: the lines above spell a deleted key (shards, link-bw)" >&2
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
