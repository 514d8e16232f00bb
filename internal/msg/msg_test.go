package msg

import (
	"testing"

	"dynmds/internal/sim"
)

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		Open: "open", Close: "close", Stat: "stat", Readdir: "readdir",
		Create: "create", Unlink: "unlink", Mkdir: "mkdir",
		Chmod: "chmod", Rename: "rename", Write: "write",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if Op(200).String() != "unknown" {
		t.Error("out-of-range op string")
	}
	if len(opNames) != int(Write)+1 {
		t.Errorf("%d op names for %d ops", len(opNames), int(Write)+1)
	}
}

func TestIsUpdate(t *testing.T) {
	updates := []Op{Create, Unlink, Mkdir, Chmod, Rename, Write}
	reads := []Op{Open, Close, Stat, Readdir}
	for _, op := range updates {
		if !op.IsUpdate() {
			t.Errorf("%v should be an update", op)
		}
	}
	for _, op := range reads {
		if op.IsUpdate() {
			t.Errorf("%v should not be an update", op)
		}
	}
}

func TestReplyLatency(t *testing.T) {
	rep := &Reply{Issued: 100 * sim.Microsecond, Completed: 350 * sim.Microsecond}
	if rep.Latency() != 250*sim.Microsecond {
		t.Fatalf("latency = %v", rep.Latency())
	}
	// Latency must come from the copied Issued value, not the request
	// struct, which may have been recycled for a newer operation.
	rep.Req = &Request{Issued: 999 * sim.Microsecond}
	if rep.Latency() != 250*sim.Microsecond {
		t.Fatalf("latency followed the recycled request: %v", rep.Latency())
	}
}
