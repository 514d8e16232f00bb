package net

import (
	"testing"

	"dynmds/internal/sim"
)

func testFixed() Fixed { return Fixed{Net: 200, Fwd: 50} }

func TestFixedDelays(t *testing.T) {
	f := testFixed()
	cases := []struct {
		c    Class
		want sim.Time
	}{
		{Request, 200}, {Reply, 200},
		{Forward, 50}, {FetchReq, 50}, {FetchResp, 50},
		{ReplicaInstall, 50}, {Coherence, 50}, {EvictNotice, 50},
		{WriteFlush, 50}, {StatCallback, 50},
		{LHPropagate, 100},
	}
	for _, tc := range cases {
		if got := f.Delay(nil, tc.c, Bytes(tc.c), 0); got != tc.want {
			t.Errorf("Fixed delay(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestFabricDeliversWithFixedLatency(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, 2, testFixed())
	var deliveredAt sim.Time
	fab.Send(Forward, 0, 1, Bytes(Forward), func(a, _ any) {
		deliveredAt = eng.Now()
	}, nil, nil)
	eng.Run()
	if deliveredAt != 50 {
		t.Fatalf("delivered at %v, want 50", deliveredAt)
	}
	if got := fab.Class(Forward); got.Sent != 1 || got.Delivered != 1 || got.Bytes != uint64(Bytes(Forward)) {
		t.Fatalf("class stats = %+v", got)
	}
	if d := fab.links[1].MaxDepth; d != 1 { // link 0→1
		t.Fatalf("link 0→1 max depth = %d, want 1", d)
	}
	if fab.InFlight() != 0 || fab.LiveEnvelopes() != 0 {
		t.Fatalf("in flight = %d, live = %d after drain", fab.InFlight(), fab.LiveEnvelopes())
	}
}

// TestQueuedSerializes checks that two messages entering the same link
// at the same instant transmit back to back, while a message on a
// different link is unaffected.
func TestQueuedSerializes(t *testing.T) {
	eng := sim.NewEngine()
	// 1 byte per microsecond: a 64-byte message occupies the link 64 us.
	q := &Queued{Base: testFixed(), Bandwidth: 1e6}
	fab := NewFabric(eng, 3, q)
	var at []sim.Time
	note := func(a, _ any) { at = append(at, eng.Now()) }
	fab.Send(FetchReq, 0, 1, 64, note, nil, nil) // 64 ser + 50 base = 114
	fab.Send(FetchReq, 0, 1, 64, note, nil, nil) // queued: 128 + 50 = 178
	fab.Send(FetchReq, 0, 2, 64, note, nil, nil) // own link: 114
	eng.Run()
	want := []sim.Time{114, 114, 178}
	if len(at) != 3 || at[0] != want[0] || at[1] != want[1] || at[2] != want[2] {
		t.Fatalf("deliveries at %v, want %v", at, want)
	}
	if d := fab.links[1].MaxDepth; d != 2 { // link 0→1
		t.Fatalf("link 0->1 max depth = %d, want 2", d)
	}
}

// TestQueuedInfiniteBandwidthMatchesFixed: with no serialization delay
// the queued model must price every hop exactly like Fixed.
func TestQueuedInfiniteBandwidthMatchesFixed(t *testing.T) {
	f := testFixed()
	q := &Queued{Base: f, Bandwidth: 1e18}
	var l Link
	for c := Class(0); c < Class(NumClasses); c++ {
		if got, want := q.Delay(&l, c, Bytes(c), 1000), f.Delay(nil, c, Bytes(c), 1000); got != want {
			t.Errorf("queued(inf bw) delay(%v) = %v, fixed = %v", c, got, want)
		}
	}
}

// TestEnvelopePoolReuse: steady-state sends recycle envelopes rather
// than growing the pool without bound.
func TestEnvelopePoolReuse(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, 2, testFixed())
	for i := 0; i < 100; i++ {
		fab.Send(Coherence, 0, 1, Bytes(Coherence), func(a, b any) {}, nil, nil)
		eng.Run()
	}
	if fab.LiveEnvelopes() != 0 {
		t.Fatalf("%d live envelopes after drain", fab.LiveEnvelopes())
	}
	send := func() {
		fab.Send(Coherence, 0, 1, Bytes(Coherence), func(a, b any) {}, nil, nil)
		eng.Run()
	}
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("a sequential send allocated %.1f times; it should reuse the pooled envelope", allocs)
	}
}

func TestSummaryAndTable(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, 2, testFixed())
	fab.Send(Request, fab.ClientEdge(), 0, Bytes(Request), func(a, b any) {}, nil, nil)
	fab.Send(Reply, 0, fab.ClientEdge(), ReplyBytes(3), func(a, b any) {}, nil, nil)
	eng.Run()
	s := fab.Summary()
	if s.Model != ModelFixed {
		t.Fatalf("model = %q", s.Model)
	}
	if s.Messages != 2 {
		t.Fatalf("messages = %d", s.Messages)
	}
	wantBytes := uint64(Bytes(Request) + ReplyBytes(3))
	if s.Bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", s.Bytes, wantBytes)
	}
	if s.MaxQueueDepth != 1 {
		t.Fatalf("max queue depth = %d", s.MaxQueueDepth)
	}
	tab := s.Table()
	if tab == "" {
		t.Fatal("empty table")
	}
}

// TestFabricInFlightAllocsBlocks: with the engine's queue and the pool
// warm, a fabric whose pool is empty puts 10 000 messages in flight at
// one malloc per block of envelopes, and delivering them recycles
// every envelope.
func TestFabricInFlightAllocsBlocks(t *testing.T) {
	const msgs = 10000
	eng := sim.NewEngine()
	fab := NewFabric(eng, 2, testFixed())
	delivered := 0
	deliver := func(a, b any) { delivered++ }
	// Empty pools whose free lists have room for a burst, as a warm
	// one's has: one for each call of burst.
	pools := make([]sim.Pool[envelope], 6)
	for i := range pools {
		pools[i].Reserve(msgs)
	}
	burst := func() {
		fab.pool, pools = pools[0], pools[1:]
		for i := 0; i < msgs; i++ {
			fab.Send(Coherence, 0, 1, Bytes(Coherence), deliver, nil, nil)
		}
		eng.Run()
	}
	// The runtime's own allocations only add: take the least of three.
	allocs := testing.AllocsPerRun(1, burst)
	for try := 0; try < 2; try++ {
		allocs = min(allocs, testing.AllocsPerRun(1, burst))
	}
	if limit := msgs/64 + 7; allocs > float64(limit) {
		t.Fatalf("%d messages in flight took %.0f mallocs, want at most %d", msgs, allocs, limit)
	}
	if delivered != 6*msgs || fab.LiveEnvelopes() != 0 {
		t.Fatalf("delivered %d of %d, %d envelopes live", delivered, 6*msgs, fab.LiveEnvelopes())
	}
}
