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
	want := []Rule{
		{Kind: Crash, From: 30 * sim.Second, Node: 3},
		{Kind: Recover, From: 45 * sim.Second, Node: 3},
		{Kind: Drop, Sel: SelPair(2, 5), P: 0.01},
		{Kind: Drop, Sel: SelNode(1), P: 0.05},
		{Kind: Drop, Sel: SelClient(), P: 0.02},
		{Kind: Lag, From: 10 * sim.Second, To: 20 * sim.Second, Sel: SelAll(), Extra: 2 * sim.Millisecond},
		{Kind: Slow, From: 5 * sim.Second, To: 15 * sim.Second, Node: 2, Factor: 4},
		{Kind: Partition, From: 60 * sim.Second, To: 90 * sim.Second, A: []int{0, 1, 2, 3}, B: []int{4, 5, 6, 7}},
	}
	if !reflect.DeepEqual(s.Rules, want) {
		t.Errorf("rules = %+v\nwant %+v", s.Rules, want)
	}
	if got := s.Rules[2].Sel.String(); got != "link2-5" {
		t.Errorf("drop sel = %s", got)
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
	if len(s.Rules) != 2 || s.Rules[0].Kind != Crash || s.Rules[1].Kind != Recover {
		t.Fatalf("windowed crash: %+v", s.Rules)
	}
	if s.Rules[1].From != 45*sim.Second {
		t.Errorf("auto-recover at %v", s.Rules[1].From)
	}
}

// TestKindOrder: whatever order a schedule is written in, its rules
// come out in Kind order and, within a kind, in the order written — the
// one ordering rule the text, the plane and the cluster all follow.
func TestKindOrder(t *testing.T) {
	s, err := ParseSchedule("partition@1s-2s:{0|1},slow@1s-2s:mds2x2,recover@9s:mds1," +
		"drop@0.2:mds2,crash@3s-4s:mds2,lag@1s-2s:all+1ms,drop@0.1:all,crash@1s:mds1")
	if err != nil {
		t.Fatal(err)
	}
	const want = "crash@3s:mds2,crash@1s:mds1,recover@9s:mds1,recover@4s:mds2," +
		"drop@0.2:mds2,drop@0.1:all,lag@1s-2s:all+1ms,slow@1s-2s:mds2x2,partition@1s-2s:{0|1}"
	if got := s.String(); got != want {
		t.Errorf("canonical text\n got %s\nwant %s", got, want)
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
	if s.Rules[0].From != 500*sim.Millisecond {
		t.Errorf("500ms parsed as %v", s.Rules[0].From)
	}
	if s.Rules[1].From != 250*sim.Microsecond {
		t.Errorf("250us parsed as %v", s.Rules[1].From)
	}
	if l := s.Rules[2]; l.From != 1500*sim.Millisecond || l.Extra != 750*sim.Microsecond {
		t.Errorf("lag window parsed as %+v", l)
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

// TestPlanePassOrder: partitions are checked before any drop rule
// draws, whatever the kind order, so a partitioned message consumes no
// randomness and a message the partition lets through draws as usual.
func TestPlanePassOrder(t *testing.T) {
	s, err := ParseSchedule("drop@0.5:all,partition@0s-10s:{0|1}")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlane(1, s, 3)
	if drop, _ := p.Transit(0, 1, 5*sim.Second); !drop || p.draws != 0 {
		t.Errorf("partitioned 0->1: dropped %v after %d draws, want dropped after 0", drop, p.draws)
	}
	if p.Transit(0, 2, 5*sim.Second); p.draws != 1 {
		t.Errorf("0->2 across no partition: %d draws, want 1", p.draws)
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
	var rules []Rule
	for i := rng.Intn(3); i > 0; i-- {
		rules = append(rules, Rule{Kind: Crash, From: rt(), Node: rng.Intn(numMDS)})
	}
	for i := rng.Intn(3); i > 0; i-- {
		rules = append(rules, Rule{Kind: Recover, From: rt(), Node: rng.Intn(numMDS)})
	}
	for i := rng.Intn(3); i > 0; i-- {
		rules = append(rules, Rule{Kind: Drop, Sel: sel(), P: rng.Float64()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		f, to := win()
		rules = append(rules, Rule{Kind: Lag, Sel: sel(), From: f, To: to, Extra: rt()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		f, to := win()
		rules = append(rules, Rule{Kind: Slow, From: f, To: to, Node: rng.Intn(numMDS), Factor: 1 + 7*rng.Float64()})
	}
	for i := rng.Intn(2); i > 0; i-- {
		f, to := win()
		half := 1 + rng.Intn(numMDS-1)
		perm := rng.Perm(numMDS)
		rules = append(rules, Rule{
			Kind: Partition, From: f, To: to,
			A: append([]int(nil), perm[:half]...),
			B: append([]int(nil), perm[half:]...),
		})
	}
	return NewSchedule(rules)
}

// TestStringRoundTripProperty is the satellite-1 guarantee: for any
// schedule — parsed from the DSL or built programmatically (as the
// chaos generator and shrinker do) — String() emits canonical DSL that
// ParseSchedule turns back into a structurally identical schedule. That
// makes every shrunk repro loadable via `mdsim -set faults=` verbatim.
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
	c.Rules[0].Node = 2
	c.Rules[1].A[0] = 9
	if s.Rules[0].Node != 1 || s.Rules[1].A[0] != 0 {
		t.Error("Clone shares memory with the original")
	}
	if len(s.Rules) != 2 || len(c.Rules) != 2 {
		t.Errorf("rules = %d / %d, want 2", len(s.Rules), len(c.Rules))
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
	if !strings.Contains(s.Rules[1].Sel.String(), "link") {
		t.Errorf("sel string = %q", s.Rules[1].Sel.String())
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
