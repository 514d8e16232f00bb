package endure

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynmds/internal/chaos"
	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/fsgen"
	"dynmds/internal/mds"
	"dynmds/internal/sim"
	"dynmds/internal/snap"
	"dynmds/internal/workload"
)

// testOptions is a small endurance configuration: a 4-node cluster
// under an open-loop churn population, three checkpoints over an 8s
// horizon. The arrival budget (~400 ops/s aggregate) stays well under
// service capacity so every quiesce drains.
func testOptions(faults string) Options {
	cfg := cluster.Default()
	cfg.Seed = 42
	cfg.NumMDS = 4
	cfg.ClientsPerMDS = 40
	cfg.Faults = faults
	cfg.Duration = sim.FromSeconds(8)
	cfg.Warmup = sim.FromSeconds(1)
	cfg.OpenLoop = &client.PopulationConfig{Clients: 20000, Rate: 0.02}
	return Options{Cluster: cfg, Every: sim.FromSeconds(2.5)}
}

// leaseEverything turns the lease plane on and concentrates the traffic
// — one tenant, a steep popularity skew, 2.5 times the rate — so that
// the hottest records' decayed popularity crosses the grant and fan-out
// floors (lease.GrantPopularity, lease.FanoutPopularity) within the
// first checkpoint interval, and the registry, the client slab and the
// replica sets have content to carry.
func leaseEverything(cfg *cluster.Config) {
	cfg.Lease.Enabled, cfg.Lease.Fanout = true, true
	cfg.OpenLoop.Rate *= 2.5
	cfg.OpenLoop.Tenant = workload.TenantConfig{Tenants: 1, FileSkew: 2}
}

// quiescedAtFirstCheckpoint runs opt's cluster to its first checkpoint
// instant, quiesces and checks it there, as Run does, and stops.
func quiescedAtFirstCheckpoint(t *testing.T, opt *Options) *cluster.Cluster {
	t.Helper()
	if err := opt.Normalize(); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(opt.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	base := chaos.Capture(c)
	c.StartEndure()
	c.RunTo(Instants(opt.Every, opt.Cluster.Duration)[0])
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// simfsck reads the tree through its name indexes, which builds them:
	// a checkpoint written after it carries more materialized directories
	// than one written before.
	if err := chaos.Fsck(c, base); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRestoreBitIdentity is the endurance plane's core determinism
// claim: a run saved at a checkpoint and restored finishes with a
// digest bit-identical to the uninterrupted run — with Config.Shards
// set, under an active fault schedule, from a
// checkpoint taken while a node is down, on every strategy family, with
// links that carry busy horizons, and with the lease plane on. The same
// walk writes and reads a checkpoint, so two more things hold of every
// case: writing does not change what it walks (two checkpoints written
// back to back are the same bytes, and the bytes of the run's file), and
// reading loses nothing (a restored cluster writes the file it was
// restored from).
func TestRestoreBitIdentity(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*cluster.Config)
	}{
		{"serial", func(*cluster.Config) {}},
		// Shards is read by nothing: the K cases pin that a checkpoint
		// neither records it nor depends on it.
		{"sharded-K4", func(cfg *cluster.Config) { cfg.Shards = 4 }},
		{"serial-faults", func(cfg *cluster.Config) { cfg.Faults = "crash@3s-4s:mds1,crash@5s-5.6s:mds3" }},
		{"outage", func(cfg *cluster.Config) { cfg.Faults = "crash@1s-7s:mds1,drop@0.02:all" }},
		{"static-leases-fanout", func(cfg *cluster.Config) {
			cfg.Strategy = cluster.StratStatic
			leaseEverything(cfg)
		}},
		{"dirhash", func(cfg *cluster.Config) { cfg.Strategy = cluster.StratDirHash }},
		{"queued-net", func(cfg *cluster.Config) { cfg.NetModel = "queued" }},
		{"leases-K2", func(cfg *cluster.Config) {
			cfg.Shards = 2
			leaseEverything(cfg)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			options := func() Options {
				opt := testOptions("")
				tc.mod(&opt.Cluster)
				return opt
			}
			ref, err := Run(options())
			if err != nil {
				t.Fatal(err)
			}

			saved := options()
			saved.Dir = t.TempDir()
			savedRes, err := Run(saved)
			if err != nil {
				t.Fatal(err)
			}
			if savedRes.Digest != ref.Digest {
				t.Fatalf("checkpoint writing perturbed the run:\n  plain %s\n  saved %s",
					ref.Digest, savedRes.Digest)
			}

			live := options()
			c := quiescedAtFirstCheckpoint(t, &live)
			if live.Cluster.Lease.Enabled {
				var grants, fanouts uint64
				for _, n := range c.Nodes {
					grants += n.Stats.LeaseGrants
					fanouts += n.Stats.ReplicaFanouts
				}
				if grants == 0 || fanouts == 0 {
					t.Fatalf("lease plane idle at the first checkpoint: %d grants, %d fan-outs", grants, fanouts)
				}
			}
			first := encodeSnapshot(c, &live.Cluster, 0, c.Now())
			second := encodeSnapshot(c, &live.Cluster, 0, c.Now())
			if !bytes.Equal(first, second) {
				t.Errorf("two checkpoints written back to back differ (%d and %d bytes): writing changed what it walked",
					len(first), len(second))
			}

			for ck := 0; ck < len(savedRes.Rows)-1; ck++ {
				file, err := os.ReadFile(snapshotPath(saved.Dir, ck))
				if err != nil {
					t.Fatal(err)
				}
				if ck == 0 && !bytes.Equal(first, file) {
					t.Errorf("a checkpoint written by hand at the first instant differs from the run's ck-000 (%d and %d bytes)",
						len(first), len(file))
				}
				fresh := options()
				st, hdr, err := load(&fresh, file)
				if err != nil {
					t.Fatalf("load ck-%03d: %v", ck, err)
				}
				if again := encodeSnapshot(st.c, &fresh.Cluster, hdr.Checkpoint, hdr.ResumeAt); !bytes.Equal(again, file) {
					t.Errorf("a cluster restored from ck-%03d writes a different checkpoint (%d bytes, the file has %d)",
						ck, len(again), len(file))
				}

				restored, err := Restore(options(), snapshotPath(saved.Dir, ck))
				if err != nil {
					t.Fatalf("restore from ck-%03d: %v", ck, err)
				}
				if restored.Digest != ref.Digest {
					t.Errorf("restored from ck-%03d diverged:\n  plain    %s\n  restored %s",
						ck, ref.Digest, restored.Digest)
				}
				// The restored curve must agree with the uninterrupted
				// run's rows for the checkpoints it replays.
				tail := ref.Rows[ck+1:]
				if len(restored.Rows) != len(tail) {
					t.Fatalf("restored rows = %d, want %d", len(restored.Rows), len(tail))
				}
				for i := range tail {
					got, want := restored.Rows[i], tail[i]
					got.Path, want.Path = "", ""
					if got != want {
						t.Errorf("row %d differs:\n  plain    %+v\n  restored %+v", i, want, got)
					}
				}
			}
		})
	}
}

// TestInstants pins the checkpoint cadence: multiples of every up to
// the horizon, the horizon itself always last, and a penultimate
// multiple inside the quiesce drain of the horizon dropped (the two
// checkpoints would overlap).
func TestInstants(t *testing.T) {
	s := sim.FromSeconds
	eq := func(got, want []sim.Time) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if got := Instants(s(2.5), s(8)); !eq(got, []sim.Time{s(2.5), s(5), s(8)}) {
		t.Errorf("Instants(2.5s, 8s) = %v", got)
	}
	if got := Instants(s(2.5), s(6)); !eq(got, []sim.Time{s(2.5), s(6)}) {
		t.Errorf("Instants(2.5s, 6s) = %v (the 5s multiple sits inside the drain before 6s)", got)
	}
	if got := Instants(s(3), s(6)); !eq(got, []sim.Time{s(3), s(6)}) {
		t.Errorf("Instants(3s, 6s) = %v (the 6s multiple is the horizon)", got)
	}
	drainS := cluster.QuiesceDrain.Seconds()
	if got := Instants(s(3), s(6)+cluster.QuiesceDrain/2); !eq(got, []sim.Time{s(3), s(6) + cluster.QuiesceDrain/2}) {
		t.Errorf("Instants(3s, 6s+%.1gs/2) = %v (penultimate multiple inside the drain must drop)", drainS, got)
	}
}

// TestValidateSnapshot covers the fail-fast usage errors: config and
// version mismatches, corruption, and restoring from the
// final checkpoint are all rejected without running any simulation.
func TestValidateSnapshot(t *testing.T) {
	opt := testOptions("")
	opt.Dir = t.TempDir()
	if _, err := Run(opt); err != nil {
		t.Fatal(err)
	}
	first := snapshotPath(opt.Dir, 0)

	if err := ValidateSnapshot(testOptions(""), first); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	// The fault schedule is deliberately exempt (shrinking replays
	// snapshots under reduced schedules).
	if err := ValidateSnapshot(testOptions("crash@3s-4s:mds1"), first); err != nil {
		t.Fatalf("differing fault schedule rejected: %v", err)
	}

	// Shards is read by nothing, so a restore may set it differently.
	sharded := testOptions("")
	sharded.Cluster.Shards = 4
	if err := ValidateSnapshot(sharded, first); err != nil {
		t.Errorf("differing shard count rejected: %v", err)
	}
	other := testOptions("")
	other.Cluster.Seed = 43
	if err := ValidateSnapshot(other, first); err == nil ||
		!strings.Contains(err.Error(), "config hash") {
		t.Errorf("config mismatch: %v", err)
	}
	late := testOptions("")
	final := snapshotPath(opt.Dir, 2)
	if err := ValidateSnapshot(late, final); err == nil ||
		!strings.Contains(err.Error(), "final checkpoint") {
		t.Errorf("final-checkpoint restore: %v", err)
	}
	badCadence := testOptions("")
	badCadence.Every = sim.FromSeconds(3)
	if err := ValidateSnapshot(badCadence, first); err == nil ||
		!strings.Contains(err.Error(), "cadence") {
		t.Errorf("cadence mismatch: %v", err)
	}

	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	corrupt := filepath.Join(t.TempDir(), "corrupt.snap")
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshot(testOptions(""), corrupt); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt snapshot: %v", err)
	}
}

// TestSnapshotVersionRejected: a file of another format version — an
// older one (version 1 carried latency recorders, version 2 tombstone
// and wheel fields and RNG states, version 3 shard-count slots, all of
// which this format dropped) or one past this
// build's — is refused with the version message before any post-version
// field is decoded.
func TestSnapshotVersionRejected(t *testing.T) {
	for _, version := range []int{1, 2, 3, SnapshotVersion + 1} {
		path := filepath.Join(t.TempDir(), "other.snap")
		data := versionOnlySnapshot(version)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("snapshot version %d, this build reads version %d", version, SnapshotVersion)
		if _, _, err := decodeHeader(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: decodeHeader: %v, want %q", version, err, want)
		}
		if err := ValidateSnapshot(testOptions(""), path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: ValidateSnapshot: %v, want %q", version, err, want)
		}
	}
}

// versionOnlySnapshot fabricates a checksummed snapshot that ends after
// its format version.
func versionOnlySnapshot(version int) []byte {
	w := snap.NewWriter()
	w.Begin("endure")
	w.I64(int64(version))
	w.End()
	return w.Bytes()
}

// quickOptions is the endurance plane's quick acceptance config: 20k
// clients at ~600 ops/s aggregate on a 4-node cluster, four checkpoints
// over 10 s — enough churn to age the overlay, low enough that every
// quiesce drains while cold-cache clients are still faulting records in.
func quickOptions() Options {
	cfg := cluster.Default()
	cfg.Seed = 1
	cfg.NumMDS = 4
	cfg.FS.Users = 60
	cfg.Duration = sim.FromSeconds(10)
	cfg.Warmup = sim.FromSeconds(1)
	cfg.OpenLoop = &client.PopulationConfig{Clients: 20000, Rate: 0.03}
	return Options{Cluster: cfg, Every: sim.FromSeconds(2.5)}
}

// TestAgedDriftGate: as the namespace ages under churn, ops/sec at the
// last checkpoint stays within 5% of the curve's peak.
func TestAgedDriftGate(t *testing.T) {
	opt := quickOptions()
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Drift(); d > 0.05 {
		t.Errorf("aged ops/s drift %.4f exceeds the 5%% gate\n%s", d, res.CurveTable())
	}
}

// TestSoakDeterminism: the rolling soak derives its schedule and
// outcome purely from (config, seed) — two invocations agree exactly,
// and the schedule carries the requested crash/recover cycles. Across
// the rolling crash cycles, ops/sec at the last checkpoint may not fall
// more than 15% below the peak.
func TestSoakDeterminism(t *testing.T) {
	run := func() *SoakReport {
		rep, err := Soak(SoakOptions{Base: quickOptions(), Seed: 1, Cycles: 4})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Schedule == "" || a.Schedule != b.Schedule {
		t.Fatalf("soak schedules differ:\n  %s\n  %s", a.Schedule, b.Schedule)
	}
	if got := strings.Count(a.Schedule, "crash@"); got != 4 {
		t.Errorf("schedule has %d crash cycles, want 4: %s", got, a.Schedule)
	}
	if a.Failure != nil {
		t.Fatalf("soak failed: %+v", a.Failure)
	}
	if a.Result.Digest != b.Result.Digest {
		t.Fatalf("soak digests differ:\n  %s\n  %s", a.Result.Digest, b.Result.Digest)
	}
	if a.Drift > 0.15 {
		t.Errorf("throughput drift %.3f exceeds 0.15 (curve peak→last)", a.Drift)
	}
}

// agingOptions is the benchmark's aging-churn workload (its namespace,
// 20k clients at ~300 ops/s, 27 % writes) on a shorter horizon, at a
// given cluster size and cache size.
func agingOptions(seed int64, numMDS, cacheRecords int) Options {
	cfg := cluster.Default()
	cfg.Seed = seed
	cfg.NumMDS = numMDS
	cfg.FS = fsgen.Config{
		Seed: 1, Users: 60, DirsPerUser: 20, MaxDepth: 6,
		FilesPerDirMedian: 6, FilesPerDirSigma: 1.2, FilesPerDirMax: 500,
		SystemDirs: 50, SystemFilesPerDir: 20, Projects: 10, FilesPerProject: 100,
	}
	cfg.MDS = mds.DefaultConfig(cacheRecords)
	cfg.Duration = sim.FromSeconds(600)
	cfg.Warmup = cfg.Duration / 10
	cfg.OpenLoop = &client.PopulationConfig{Clients: 20000, Rate: 0.015}
	return Options{Cluster: cfg, Every: sim.FromSeconds(120)}
}

// TestRestoreResolvesRunCreatedUnlinks is the regression test for
// "cache: snapshot entry N unresolvable". With more cache than the churn
// fills (4000 records a node, or 8 nodes), a node that created a file
// and then lost authority over it keeps its copy after the new authority
// unlinks the file; the checkpoint GC must drop every entry whose ID no
// longer resolves — run-created inodes as well as tombstoned base ones —
// or restore cannot rebuild that cache. Before the fix the checkpoint at
// t=480s failed to restore on seeds 1, 2, 3, 5 (cache 4000) and 4, 5
// (8 MDS).
func TestRestoreResolvesRunCreatedUnlinks(t *testing.T) {
	cases := []struct {
		name          string
		numMDS, cache int
		seeds         []int64
	}{
		{"cache4000", 4, 4000, []int64{1, 2, 3, 4, 5}},
		{"mds8", 8, 2000, []int64{1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			saved := agingOptions(seed, tc.numMDS, tc.cache)
			saved.Dir = t.TempDir()
			ref, err := Run(saved)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			ck := len(ref.Rows) - 2 // the last checkpoint a run can resume from
			restored, err := Restore(agingOptions(seed, tc.numMDS, tc.cache), snapshotPath(saved.Dir, ck))
			if err != nil {
				t.Fatalf("%s seed %d: restore from ck-%03d: %v", tc.name, seed, ck, err)
			}
			if restored.Digest != ref.Digest {
				t.Errorf("%s seed %d: restored from ck-%03d diverged:\n  plain    %s\n  restored %s",
					tc.name, seed, ck, ref.Digest, restored.Digest)
			}
		}
	}
}
