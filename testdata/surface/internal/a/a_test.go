package a

import (
	"testing"

	"surfacefix/internal/testsupport"
)

func TestKnob(t *testing.T) {
	if got := Start(Config{Knob: testsupport.Helper()}); got != 2 {
		t.Fatalf("Start = %d, want 2", got)
	}
}
