package plan_test

import (
	"testing"

	"dynmds/internal/plan"
	"dynmds/internal/plan/library"
)

// FuzzParsePlan: whatever the text, Parse returns an error or a plan
// whose canonical form parses and prints as itself; Validate, run on
// what parsed, returns and does not panic. Seeds are the library plans,
// the test's every-directive plan, the two forms the experiment plans
// lean on — co-varying matrix keys and quick lines — and three acts and
// mixes Parse refuses.
func FuzzParsePlan(f *testing.F) {
	f.Add(fullSrc)
	f.Add("plan scaling\nquick 1\ncluster cache=2500\nmatrix mds=4,8 users=100,200 clients=120,240\nwarmup 4s\nduration 10s\n" +
		"quick matrix mds=2,4 users=50,100 clients=60,120\nquick cluster log=2000\nquick warmup 2s\nquick duration 5s\n")
	for _, p := range library.All() {
		f.Add(p.String())
	}
	// The act kind must agree with the target, and a mix must weigh
	// something.
	f.Add("plan p\ntraffic rate=1\nduration 4s\nact hotspot x @1s-2s frac=0.5\n")
	f.Add("plan p\ntraffic rate=1\nduration 4s\nact phase x @1s-2s target=/home/u0000\n")
	f.Add("plan p\ntraffic rate=1 mix=stat:0\nduration 4s\nact phase x @1s-2s mix=create:0\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := plan.Parse(src)
		if err != nil {
			return
		}
		_ = p.Validate()
		text := p.String()
		back, err := plan.Parse(text)
		if err != nil {
			t.Fatalf("a plan that parsed prints as text that does not: %v\nsource:\n%s\nprinted:\n%s", err, src, text)
		}
		if again := back.String(); again != text {
			t.Fatalf("the canonical form is not a fixed point:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}
