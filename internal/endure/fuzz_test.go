package endure

import (
	"os"
	"strings"
	"testing"
	"time"

	"dynmds/internal/client"
	"dynmds/internal/cluster"
	"dynmds/internal/fsgen"
	"dynmds/internal/sim"
	"dynmds/internal/snap/snaptest"
)

// fuzzShapes are the clusters the fuzz corpus restores into: small
// enough that a checkpoint is a few tens of kilobytes and a cluster is
// built in a millisecond, and between them holding every optional
// section — the subtree table, the balancer, the fault plane with a
// drop schedule, a crash and a lag, the lease plane.
var fuzzShapes = []struct {
	name string
	mod  func(*cluster.Config)
}{
	{"serial-drops", func(cfg *cluster.Config) { cfg.Faults = "drop@0.02:all" }},
	{"faults", func(cfg *cluster.Config) {
		cfg.Faults = "crash@1s-6s:mds1,drop@0.01:client,lag@2s-4s:mds2+1ms"
	}},
	{"static-leases", func(cfg *cluster.Config) {
		cfg.Strategy = cluster.StratStatic
		leaseEverything(cfg)
	}},
}

func fuzzOptions(shape int) Options {
	cfg := cluster.Default()
	cfg.Seed = 7
	cfg.FS = fsgen.Config{
		Seed: 1, Users: 8, DirsPerUser: 3, MaxDepth: 3,
		FilesPerDirMedian: 4, FilesPerDirSigma: 1, FilesPerDirMax: 20,
		SystemDirs: 3, SystemFilesPerDir: 4, Projects: 2, FilesPerProject: 5,
	}
	cfg.Duration = sim.FromSeconds(8)
	cfg.Warmup = sim.FromSeconds(1)
	cfg.OpenLoop = &client.PopulationConfig{Clients: 200, Rate: 1}
	fuzzShapes[shape].mod(&cfg)
	return Options{Cluster: cfg, Every: sim.FromSeconds(2.5)}
}

// fuzzConfigs returns each shape's cluster config as a run would build
// from it: normalized, and holding its frozen namespace — one per shape,
// as a sweep shares one, so that building a cluster for an input is an
// overlay and four empty nodes.
func fuzzConfigs(t testing.TB) []cluster.Config {
	t.Helper()
	cfgs := make([]cluster.Config, len(fuzzShapes))
	for shape := range cfgs {
		opt := fuzzOptions(shape)
		if err := opt.Normalize(); err != nil {
			t.Fatal(err)
		}
		fs := opt.Cluster.FS
		fs.Seed = opt.Cluster.Seed
		var err error
		if opt.Cluster.Snapshot, err = fsgen.GenerateFrozen(fs); err != nil {
			t.Fatal(err)
		}
		cfgs[shape] = opt.Cluster
	}
	return cfgs
}

// fuzzSeeds runs each shape once and returns its first checkpoint.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	seeds := make([][]byte, len(fuzzShapes))
	for shape := range fuzzShapes {
		opt := fuzzOptions(shape)
		opt.Dir = t.TempDir()
		if _, err := Run(opt); err != nil {
			t.Fatalf("%s: %v", fuzzShapes[shape].name, err)
		}
		data, err := os.ReadFile(snapshotPath(opt.Dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		seeds[shape] = data
	}
	return seeds
}

// TestDamagedCheckpoints: the fuzz seeds restore, and the damaged files
// — among them the three that took the hand-written decoders down, two
// panics and a loop that did not end — are errors that name the field.
func TestDamagedCheckpoints(t *testing.T) {
	seeds := fuzzSeeds(t)
	for shape, data := range seeds {
		opt := fuzzOptions(shape)
		if _, _, err := load(&opt, data); err != nil {
			t.Fatalf("%s: the undamaged checkpoint (%d bytes) does not restore: %v", fuzzShapes[shape].name, len(data), err)
		}
	}
	seed := seeds[0]
	for _, d := range snaptest.Damaged {
		t.Run(d.Name, func(t *testing.T) {
			data, err := snaptest.Edit(seed, d.Section, d.Edit)
			if err != nil {
				t.Fatal(err)
			}
			opt := fuzzOptions(0)
			if _, _, err = load(&opt, data); err == nil || !strings.Contains(err.Error(), d.Want) {
				t.Fatalf("restore: %v, want an error containing %q", err, d.Want)
			}
		})
	}
}

// TestRestoreOfMutatedCheckpoints is the fuzz target's property on a
// fixed sample the fuzzer's 15 s would not reach field by field: one
// byte in every 29 of each shape's checkpoint, set to the values that
// turn a varint into a negative count, a large index, a continuation
// byte or zero. Every such file restores or is refused, quickly. (Run
// over every byte and seven values — 306 000 files — it holds too.)
func TestRestoreOfMutatedCheckpoints(t *testing.T) {
	cfgs := fuzzConfigs(t)
	for shape, seed := range fuzzSeeds(t) {
		body, refused := seed[:len(seed)-8], 0
		for off := shape; off < len(body); off += 29 {
			for _, v := range []byte{0x00, 0x7f, 0xff} {
				mutated := append([]byte(nil), body...)
				mutated[off] = v
				_, r, err := decodeHeader(snaptest.Stamp(mutated))
				if err != nil {
					refused++
					continue
				}
				c, err := cluster.New(cfgs[shape])
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				if c.RestoreCheckpoint(r) != nil {
					refused++
				}
				if took := time.Since(start); took > time.Second {
					t.Errorf("%s: byte %d set to %#02x: the restore took %v", fuzzShapes[shape].name, off, v, took)
				}
			}
		}
		if refused == 0 {
			t.Errorf("%s: no mutated checkpoint was refused; the sweep is not reaching the walks", fuzzShapes[shape].name)
		}
	}
}

// FuzzRestoreCheckpoint: a checkpoint file is outside input. Whatever
// its bytes, restoring it into a cluster returns nil or an error; it
// does not panic, and it does not run or allocate out of proportion to
// the file (the fuzzer kills an input that does). The trailer is
// recomputed for every input, so mutations reach the section walks
// rather than stopping at the checksum. Seeds: the first checkpoint of
// a run of each shape, and the damaged files of TestDamagedCheckpoints.
func FuzzRestoreCheckpoint(f *testing.F) {
	seeds := fuzzSeeds(f)
	for shape, data := range seeds {
		f.Add(uint8(shape), data)
	}
	for _, d := range snaptest.Damaged {
		data, err := snaptest.Edit(seeds[0], d.Section, d.Edit)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), data)
	}
	// The header's cross-checks are not the target — they would turn away
	// every mutation of the shape or the header — so an input goes
	// straight from a header that parses to a cluster of its shape.
	cfgs := fuzzConfigs(f)
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		_, r, err := decodeHeader(snaptest.Stamp(data[:len(data)-8]))
		if err != nil {
			return
		}
		c, err := cluster.New(cfgs[int(shape)%len(cfgs)])
		if err != nil {
			t.Fatal(err)
		}
		_ = c.RestoreCheckpoint(r)
	})
}
