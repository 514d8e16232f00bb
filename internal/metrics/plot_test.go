package metrics

import "testing"

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input produced output")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if len([]rune(s)) != 8 {
		t.Fatalf("sparkline length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("scaling wrong: %q", s)
	}
	// Constant series: all minimum glyphs, no panic on zero span.
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Fatalf("flat series rendered %q", flat)
		}
	}
}
