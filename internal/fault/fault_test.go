package fault

import (
	"reflect"
	"strings"
	"testing"

	"dynmds/internal/sim"
	"dynmds/internal/snap"
)

func TestParseScheduleFull(t *testing.T) {
	src := "crash@30s:mds3,recover@45s:mds3,drop@0.01:link2-5," +
		"drop@0.05:mds1,drop@0.02:client,lag@10s-20s:all+2ms," +
		"slow@5s-15s:mds2x4,partition@60s-90s:{0-3|4-7}"
	s, err := ParseSchedule(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Crashes) != 1 || s.Crashes[0] != (NodeEvent{At: 30 * sim.Second, Node: 3}) {
		t.Errorf("crashes = %+v", s.Crashes)
	}
	if len(s.Recovers) != 1 || s.Recovers[0] != (NodeEvent{At: 45 * sim.Second, Node: 3}) {
		t.Errorf("recovers = %+v", s.Recovers)
	}
	if len(s.Drops) != 3 {
		t.Fatalf("drops = %+v", s.Drops)
	}
	if got := s.Drops[0].Sel.String(); got != "link2-5" {
		t.Errorf("drop sel = %s", got)
	}
	if len(s.Lags) != 1 || s.Lags[0].Extra != 2*sim.Millisecond {
		t.Errorf("lags = %+v", s.Lags)
	}
	if len(s.Slows) != 1 || s.Slows[0].Factor != 4 {
		t.Errorf("slows = %+v", s.Slows)
	}
	if len(s.Partitions) != 1 {
		t.Fatalf("partitions = %+v", s.Partitions)
	}
	p := s.Partitions[0]
	if len(p.A) != 4 || len(p.B) != 4 || p.A[0] != 0 || p.B[3] != 7 {
		t.Errorf("partition groups = %+v | %+v", p.A, p.B)
	}
	if err := s.Validate(8); err != nil {
		t.Errorf("validate(8): %v", err)
	}
	if err := s.Validate(4); err == nil {
		t.Error("validate(4) accepted node 7")
	}
	if s.Empty() {
		t.Error("schedule reported empty")
	}
}

func TestParseScheduleWindowCrash(t *testing.T) {
	s, err := ParseSchedule("crash@30s-45s:mds0")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Crashes) != 1 || len(s.Recovers) != 1 {
		t.Fatalf("windowed crash: %+v / %+v", s.Crashes, s.Recovers)
	}
	if s.Recovers[0].At != 45*sim.Second {
		t.Errorf("auto-recover at %v", s.Recovers[0].At)
	}
}

func TestParseScheduleEmpty(t *testing.T) {
	for _, src := range []string{"", "   ", " , "} {
		s, err := ParseSchedule(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
		}
		if !s.Empty() {
			t.Errorf("%q: not empty", src)
		}
	}
}

func TestParseScheduleTimes(t *testing.T) {
	s, err := ParseSchedule("crash@500ms:mds0,recover@250us:mds0,lag@1.5s-2s:client+750us")
	if err != nil {
		t.Fatal(err)
	}
	if s.Crashes[0].At != 500*sim.Millisecond {
		t.Errorf("500ms parsed as %v", s.Crashes[0].At)
	}
	if s.Recovers[0].At != 250*sim.Microsecond {
		t.Errorf("250us parsed as %v", s.Recovers[0].At)
	}
	if s.Lags[0].From != 1500*sim.Millisecond || s.Lags[0].Extra != 750*sim.Microsecond {
		t.Errorf("lag window parsed as %+v", s.Lags[0])
	}
}

func TestParseScheduleErrors(t *testing.T) {
	bad := []string{
		"crash30s:mds3",                            // no @
		"crash@30s",                                // no :
		"boom@30s:mds3",                            // unknown kind
		"crash@30s:node3",                          // bad node
		"crash@45s-30s:mds3",                       // unordered window
		"drop@1.5:all",                             // p out of range
		"drop@-0.1:all",                            // p out of range
		"drop@0.1:link2-2",                         // self link
		"drop@0.1:bogus",                           // bad selector
		"lag@10s:all+1ms",                          // lag without window
		"lag@10s-20s:all",                          // lag without duration
		"lag@10s-20s:all+0s",                       // non-positive lag
		"slow@10s-20s:mds1",                        // slow without factor
		"slow@10s-20s:mds1x0.5",                    // factor < 1
		"partition@10s-20s:0-3|4",                  // missing braces
		"partition@10s-20s:{0-3}",                  // one group
		"partition@1s-2s:{0-2|2}",                  // overlapping groups
		"partition@1s-2s:{|0}",                     // empty group
		"crash@xyz:mds1",                           // bad time
		"partition@1s-2s:{0|b}",                    // bad group item
		"crash@1e20:mds0",                          // time past the clock
		"lag@NaNs-1s:all+1ms",                      // not a time
		"drop@NaN:all",                             // not a probability
		"slow@1s-2s:mds0xNaN",                      // not a factor
		"slow@1s-2s:mds0xInf",                      // not a factor
		"partition@1s-2s:{0-999999999|1000000000}", // a range no cluster has
	}
	for _, src := range bad {
		if _, err := ParseSchedule(src); err == nil {
			t.Errorf("%q: accepted", src)
		}
	}
}

func TestPlanePartitionAndLag(t *testing.T) {
	s, err := ParseSchedule("partition@10s-20s:{0-1|2-3},lag@5s-15s:mds0+1ms")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlane(1, s, 4)
	at := func(now sim.Time, from, to int) (bool, sim.Time) {
		return p.Transit(from, to, now)
	}
	if drop, _ := at(9*sim.Second, 0, 2); drop {
		t.Error("partition active before window")
	}
	if drop, _ := at(10*sim.Second, 0, 2); !drop {
		t.Error("partition inactive at window start")
	}
	if drop, _ := at(15*sim.Second, 3, 1); !drop {
		t.Error("partition not symmetric")
	}
	if drop, _ := at(15*sim.Second, 0, 1); drop {
		t.Error("partition dropped intra-group traffic")
	}
	if drop, _ := at(15*sim.Second, 0, 4); drop {
		t.Error("partition dropped client-edge traffic")
	}
	if drop, _ := at(20*sim.Second, 0, 2); drop {
		t.Error("partition active at window end (half-open)")
	}
	if _, extra := at(6*sim.Second, 0, 3); extra != sim.Millisecond {
		t.Errorf("lag extra = %v", extra)
	}
	if _, extra := at(6*sim.Second, 1, 2); extra != 0 {
		t.Errorf("lag leaked to unmatched link: %v", extra)
	}
	if _, extra := at(16*sim.Second, 0, 3); extra != 0 {
		t.Errorf("lag active after window: %v", extra)
	}
}

func TestPlaneDropDeterministic(t *testing.T) {
	s, err := ParseSchedule("drop@0.3:all")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []bool {
		p := NewPlane(42, s, 4)
		out := make([]bool, 0, 1000)
		for i := 0; i < 1000; i++ {
			drop, _ := p.Transit(i%4, (i+1)%4, sim.Time(i))
			out = append(out, drop)
		}
		return out
	}
	a, b := run(), run()
	var drops int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical planes", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops < 200 || drops > 400 {
		t.Errorf("drop@0.3 dropped %d/1000", drops)
	}
}

func TestPlaneZeroProbabilityDrawsNothing(t *testing.T) {
	// A plane whose only probabilistic rule has p=0 must not consume
	// randomness: its stream stays aligned with an untouched stream.
	s, err := ParseSchedule("drop@0:all")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlane(7, s, 4)
	for i := 0; i < 100; i++ {
		if drop, extra := p.Transit(0, 1, sim.Time(i)); drop || extra != 0 {
			t.Fatal("p=0 rule perturbed transit")
		}
	}
	want := sim.NewStream(7, "fault").Float64()
	if got := p.rng.Float64(); got != want {
		t.Errorf("plane consumed randomness for p=0 rules: next draw %v, want %v", got, want)
	}
}

// randomSchedule builds an arbitrary valid schedule for the round-trip
// property test, covering every rule class, every selector kind, and
// every time granularity (s/ms/us).
func randomSchedule(rng *sim.RNG, numMDS int) *Schedule {
	rt := func() sim.Time {
		// Mix granularities so all three unit printers are exercised.
		switch rng.Intn(3) {
		case 0:
			return sim.Time(1+rng.Intn(30)) * sim.Second
		case 1:
			return sim.Time(1+rng.Intn(30000)) * sim.Millisecond
		default:
			return sim.Time(1 + rng.Intn(30000000))
		}
	}
	win := func() (sim.Time, sim.Time) {
		f := rt()
		return f, f + rt()
	}
	sel := func() LinkSel {
		switch rng.Intn(4) {
		case 0:
			return SelAll()
		case 1:
			return SelClient()
		case 2:
			return SelNode(rng.Intn(numMDS))
		default:
			a := rng.Intn(numMDS)
			b := (a + 1 + rng.Intn(numMDS-1)) % numMDS
			return SelPair(a, b)
		}
	}
	s := &Schedule{}
	for i := rng.Intn(3); i > 0; i-- {
		s.Crashes = append(s.Crashes, NodeEvent{At: rt(), Node: rng.Intn(numMDS)})
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.Recovers = append(s.Recovers, NodeEvent{At: rt(), Node: rng.Intn(numMDS)})
	}
	for i := rng.Intn(3); i > 0; i-- {
		s.Drops = append(s.Drops, DropRule{Sel: sel(), P: rng.Float64()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		f, to := win()
		s.Lags = append(s.Lags, LagRule{Sel: sel(), From: f, To: to, Extra: rt()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		f, to := win()
		s.Slows = append(s.Slows, SlowWindow{From: f, To: to, Node: rng.Intn(numMDS), Factor: 1 + 7*rng.Float64()})
	}
	for i := rng.Intn(2); i > 0; i-- {
		f, to := win()
		half := 1 + rng.Intn(numMDS-1)
		perm := rng.Perm(numMDS)
		s.Partitions = append(s.Partitions, Partition{
			From: f, To: to,
			A: append([]int(nil), perm[:half]...),
			B: append([]int(nil), perm[half:]...),
		})
	}
	return s
}

// TestStringRoundTripProperty is the satellite-1 guarantee: for any
// schedule — parsed from the DSL or built programmatically (as the
// chaos generator and shrinker do) — String() emits canonical DSL that
// ParseSchedule turns back into a structurally identical schedule. That
// makes every shrunk repro loadable via `mdsim -faults` verbatim.
func TestStringRoundTripProperty(t *testing.T) {
	const numMDS = 6
	rng := sim.NewStream(20260806, "fault-roundtrip")
	for i := 0; i < 500; i++ {
		s := randomSchedule(rng, numMDS)
		text := s.String()
		back, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("iter %d: reparse of %q: %v", i, text, err)
		}
		back.src = s.src // Source is carrier metadata, not structure.
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("iter %d: round trip changed the schedule\n text: %q\n  was: %+v\n  got: %+v",
				i, text, s, back)
		}
		if again := back.String(); again != text {
			t.Fatalf("iter %d: String not a fixpoint: %q then %q", i, text, again)
		}
		if err := back.Validate(numMDS); err != nil {
			t.Fatalf("iter %d: reparsed schedule invalid: %v", i, err)
		}
	}
}

// TestStringRoundTripParsed: DSL text → parse → print → parse must be
// structurally stable too, including windowed crash shorthand (which
// canonicalises into separate crash/recover events) and sub-second
// times.
func TestStringRoundTripParsed(t *testing.T) {
	srcs := []string{
		"crash@30s-45s:mds3",
		"crash@500ms:mds0,recover@250us:mds0",
		"drop@0.015:link2-5,drop@1e-05:all,lag@1500ms-2s:client+750us",
		"slow@5s-15s:mds2x2.5,partition@60s-90s:{0.2|1.3}",
		"",
	}
	for _, src := range srcs {
		s, err := ParseSchedule(src)
		if err != nil {
			t.Fatal(err)
		}
		text := s.String()
		back, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("%q: reparse of %q: %v", src, text, err)
		}
		back.src = s.src
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%q: round trip via %q changed schedule", src, text)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s, err := ParseSchedule("crash@30s:mds1,partition@10s-20s:{0|1.2}")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	c.Crashes[0].Node = 2
	c.Partitions[0].A[0] = 9
	if s.Crashes[0].Node != 1 || s.Partitions[0].A[0] != 0 {
		t.Error("Clone shares memory with the original")
	}
	if s.NumRules() != 2 || c.NumRules() != 2 {
		t.Errorf("NumRules = %d / %d, want 2", s.NumRules(), c.NumRules())
	}
}

func TestScheduleSourceRoundTrip(t *testing.T) {
	src := "crash@30s:mds3,drop@0.01:link2-5"
	s, err := ParseSchedule("  " + src + " ")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source() != src {
		t.Errorf("source = %q", s.Source())
	}
	if !strings.Contains(s.Drops[0].Sel.String(), "link") {
		t.Errorf("sel string = %q", s.Drops[0].Sel.String())
	}
}

// TestReplay: a plane restored from a checkpoint continues the fault
// stream where the checkpointed one stood, and a draw count that the
// snapshot's own sent messages cannot account for — it is a loop bound
// read from a file — is refused at once instead of being looped over.
func TestReplay(t *testing.T) {
	s, err := ParseSchedule("drop@0.3:all,drop@0:client")
	if err != nil {
		t.Fatal(err)
	}
	const sent = 100
	a := NewPlane(1, s, 4)
	for i := 0; i < sent; i++ {
		a.Transit(0, 1, 0)
	}
	restored := func(draws uint64) *Plane {
		t.Helper()
		w := snap.NewWriter()
		w.Begin("fault")
		w.U64(draws)
		w.End()
		r, err := snap.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		p, dec := NewPlane(1, s, 4), snap.Decoder(r)
		if dec.Section("fault", p.Snap); dec.Err() != nil {
			t.Fatal(dec.Err())
		}
		return p
	}
	b := restored(a.draws)
	if err := b.Replay(sent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		da, _ := a.Transit(0, 1, 0)
		db, _ := b.Transit(0, 1, 0)
		if da != db {
			t.Fatalf("send %d after the restore: dropped %v on the original, %v on the restored plane", i, da, db)
		}
	}
	// One rule of the two draws, so sent messages allow sent draws.
	if err := restored(sent + 1).Replay(sent); err == nil || !strings.Contains(err.Error(), "fault draws") {
		t.Errorf("a draw more than the sent messages allow: %v", err)
	}
	if err := restored(1 << 62).Replay(sent); err == nil {
		t.Error("2^62 draws accepted")
	}
}
