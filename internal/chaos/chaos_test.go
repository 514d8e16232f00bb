package chaos

import (
	"reflect"
	"testing"

	"dynmds/internal/fault"
	"dynmds/internal/sim"
)

func genConfig(run int) GenConfig {
	return GenConfig{Seed: 7, Run: run, NumMDS: 4, Duration: 10 * sim.Second}
}

func TestGenerateDeterministic(t *testing.T) {
	for run := 0; run < 20; run++ {
		a, b := Generate(genConfig(run)), Generate(genConfig(run))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: same config produced different schedules:\n%s\n%s", run, a, b)
		}
		if a.String() != b.String() {
			t.Fatalf("run %d: canonical text differs", run)
		}
	}
	// Different run indices must not all collapse to one schedule.
	distinct := map[string]bool{}
	for run := 0; run < 20; run++ {
		distinct[Generate(genConfig(run)).String()] = true
	}
	if len(distinct) < 10 {
		t.Errorf("20 runs produced only %d distinct schedules", len(distinct))
	}
}

// TestGenerateValid: every generated schedule validates, round-trips
// through the DSL, keeps all windows inside the run, and never crashes
// node 0 — the designated failover survivor.
func TestGenerateValid(t *testing.T) {
	for run := 0; run < 200; run++ {
		cfg := genConfig(run)
		s := Generate(cfg)
		if err := s.Validate(cfg.NumMDS); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		back, err := fault.ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("run %d: generated schedule does not reparse: %v\n%s", run, err, s)
		}
		if len(back.Rules) != len(s.Rules) {
			t.Fatalf("run %d: reparse changed rule count %d -> %d", run, len(s.Rules), len(back.Rules))
		}
		lo, hi := cfg.Duration/10, cfg.Duration*9/10
		checkWin := func(from, to sim.Time) {
			if from < lo || to > hi || from >= to {
				t.Fatalf("run %d: window [%v, %v) outside [%v, %v)", run, from, to, lo, hi)
			}
		}
		for _, r := range s.Rules {
			switch r.Kind {
			case fault.Crash:
				if r.Node == 0 {
					t.Fatalf("run %d: schedule crashes node 0", run)
				}
				if r.From < lo || r.From >= hi {
					t.Fatalf("run %d: crash at %v outside the run body", run, r.From)
				}
			case fault.Lag, fault.Slow:
				checkWin(r.From, r.To)
			case fault.Partition:
				checkWin(r.From, r.To)
				if len(r.A) == 0 || len(r.B) == 0 {
					t.Fatalf("run %d: empty partition group", run)
				}
			case fault.Drop:
				if r.P < 0 || r.P > 0.3 {
					t.Fatalf("run %d: drop probability %v out of bounds", run, r.P)
				}
			}
		}
	}
}
