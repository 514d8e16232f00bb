package chaos

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"dynmds/internal/fault"
	"dynmds/internal/sim"
)

// TestGeneratedAndShrunkText pins the exact text the generators print
// and the shrinker reaches: each hash is FNV-64a over one line per
// schedule. The chaos golden pins only the budget's summary line, so
// without this a change to rule order, the canonical form or the
// shrinker's candidate order would go unseen. Expected values were taken
// from a build the behaviour is known good on; a change here is a change
// of every chaos cell's faults and repro.
func TestGeneratedAndShrunkText(t *testing.T) {
	const (
		wantGenerated = uint64(0xdf9202299c02892e)
		wantRolling   = uint64(0xcfa0f043e9318ad)
		wantShrunk    = uint64(0x76dd7097f5c0106f)
	)
	// fails holds while the text keeps a crash and any windowed rule.
	fails := func(s *fault.Schedule) bool {
		text := s.String()
		return strings.Contains(text, "crash@") && (strings.Contains(text, "lag@") ||
			strings.Contains(text, "slow@") || strings.Contains(text, "partition@"))
	}
	gen, shrunk := fnv.New64a(), fnv.New64a()
	for seed := int64(1); seed <= 2; seed++ {
		for run := 0; run < 50; run++ {
			for _, mds := range []int{2, 4, 8} {
				s := Generate(GenConfig{Seed: seed, Run: run, NumMDS: mds, Duration: 20 * sim.Second})
				fmt.Fprintln(gen, s.String())
				cut, evals := ShrinkSchedule(s, fails, 120)
				fmt.Fprintf(shrunk, "%s %d\n", cut, evals)
			}
		}
	}
	rolling, err := GenerateRolling(RollingConfig{Seed: 1, NumMDS: 6, Cycles: 7, Horizon: sim.Hour})
	if err != nil {
		t.Fatal(err)
	}
	roll := fnv.New64a()
	fmt.Fprintln(roll, rolling.String())
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"generated", gen.Sum64(), wantGenerated},
		{"rolling", roll.Sum64(), wantRolling},
		{"shrunk", shrunk.Sum64(), wantShrunk},
	} {
		if c.got != c.want {
			t.Errorf("%s text hashes to %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
