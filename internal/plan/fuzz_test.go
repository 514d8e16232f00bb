package plan_test

import (
	"testing"

	"dynmds/internal/plan"
	"dynmds/internal/plan/library"
)

// FuzzParsePlan: whatever the text, Parse returns an error or a plan
// whose canonical form parses and prints as itself; Validate, run on
// what parsed, returns and does not panic. Seeds are the library plans
// and the test's every-directive plan.
func FuzzParsePlan(f *testing.F) {
	f.Add(fullSrc)
	for _, p := range library.All() {
		f.Add(p.String())
	}
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
