package lease

import (
	"testing"

	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

func TestNormalizeDefaults(t *testing.T) {
	c := Config{Enabled: true}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Duration != DefaultDuration {
		t.Fatalf("default duration not applied: %+v", c)
	}

	// The zero value is inert and must stay untouched: a disabled plane
	// is the bit-identical baseline.
	c = Config{}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c != (Config{}) {
		t.Fatalf("disabled config mutated: %+v", c)
	}
}

func TestNormalizeRejectsBadKnobs(t *testing.T) {
	bad := []Config{
		{Enabled: true, Duration: -sim.Second},
		{Enabled: true, Fanout: true, Duration: -sim.Millisecond},
	}
	for i, c := range bad {
		if err := c.Normalize(); err == nil {
			t.Fatalf("case %d: bad config %+v accepted", i, c)
		}
	}
	// Fan-out alone builds no plane: traffic control runs it, and the
	// lease lifetime is neither defaulted nor checked.
	c := Config{Fanout: true}
	if err := c.Normalize(); err != nil || c != (Config{Fanout: true}) {
		t.Fatalf("fan-out-only config normalized to %+v, %v", c, err)
	}
}

func TestRegistryGrantRecall(t *testing.T) {
	r := NewRegistry(100)
	ino := namespace.InodeID(7)
	if r.Outstanding(ino) {
		t.Fatal("fresh registry has outstanding grants")
	}
	g0 := r.Gen(ino)
	r.NoteGrant(ino)
	r.NoteGrant(ino)
	if !r.Outstanding(ino) {
		t.Fatal("grants not recorded")
	}
	r.Recall(ino)
	if r.Outstanding(ino) {
		t.Fatal("recall did not clear the grant count")
	}
	if r.Gen(ino) != g0+1 {
		t.Fatalf("gen = %d, want %d", r.Gen(ino), g0+1)
	}

	// Out-of-range inodes are simply never leasable; no panics, no state.
	huge := namespace.InodeID(1 << 40)
	if r.Leasable(huge) {
		t.Fatal("out-of-range inode leasable")
	}
	r.NoteGrant(huge)
	r.Recall(huge)
	if r.Gen(huge) != 0 || r.Outstanding(huge) {
		t.Fatal("out-of-range inode acquired state")
	}
}

func TestTableInstallValid(t *testing.T) {
	tab := NewTable(4, 2)
	ino := namespace.InodeID(42)
	exp := 700 * sim.Millisecond
	tab.Install(1, ino, 3, exp)

	if !tab.Valid(1, ino, 3, 100*sim.Millisecond) {
		t.Fatal("fresh lease invalid")
	}
	// Wrong client region, wrong generation, expired.
	if tab.Valid(2, ino, 3, 100*sim.Millisecond) {
		t.Fatal("lease leaked across client regions")
	}
	if tab.Valid(1, ino, 4, 100*sim.Millisecond) {
		t.Fatal("stale generation accepted")
	}
	if tab.Valid(1, ino, 3, 700*sim.Millisecond) {
		t.Fatal("expired lease accepted")
	}
	// Expiry is truncated to the millisecond grid: a lease may lapse up
	// to 1ms early, never late.
	tab2 := NewTable(1, 1)
	tab2.Install(0, ino, 0, 700*sim.Millisecond+999)
	if tab2.Valid(0, ino, 0, 700*sim.Millisecond) {
		t.Fatal("sub-millisecond expiry tail honoured; truncation must round down")
	}
}

func TestTableNewestGrantWins(t *testing.T) {
	tab := NewTable(1, 1)
	a, b := namespace.InodeID(1), namespace.InodeID(2)
	tab.Install(0, a, 0, sim.Second)
	tab.Install(0, b, 0, sim.Second) // same home slot (ways=1): evicts a
	if tab.Valid(0, a, 0, 0) {
		t.Fatal("evicted lease still valid")
	}
	if !tab.Valid(0, b, 0, 0) {
		t.Fatal("newest grant lost")
	}
}

func TestTableHugeInodeIgnored(t *testing.T) {
	tab := NewTable(1, 1)
	huge := namespace.InodeID(0xFFFFFFFF)
	tab.Install(0, huge, 0, sim.Second)
	if tab.Valid(0, huge, 0, 0) {
		t.Fatal("inode past the 32-bit key space leased")
	}
}

func TestPlaneDangling(t *testing.T) {
	p := NewPlane(DefaultDuration, 4, 100)
	ino := namespace.InodeID(9)

	// A granted lease the registry knows about: not dangling.
	p.Reg.NoteGrant(ino)
	p.Tab.Install(0, ino, p.Reg.Gen(ino), sim.Second)
	if n := p.Dangling(0); n != 0 {
		t.Fatalf("registered lease reported dangling: %d", n)
	}

	// Recall bumps the generation; the slot is stale, not dangling.
	p.Reg.Recall(ino)
	if n := p.Dangling(0); n != 0 {
		t.Fatalf("recalled lease reported dangling: %d", n)
	}

	// A slot at the current generation with no registry record IS a
	// coherence hole (this can only happen through a bug).
	p.Tab.Install(1, ino, p.Reg.Gen(ino), sim.Second)
	if n := p.Dangling(0); n != 1 {
		t.Fatalf("dangling = %d, want 1", n)
	}
	// ...unless it has already expired.
	if n := p.Dangling(2 * sim.Second); n != 0 {
		t.Fatalf("expired slot reported dangling: %d", n)
	}
}

func TestPlaneFootprint(t *testing.T) {
	p := NewPlane(DefaultDuration, 1000, 100)
	// 12 bytes per slot, Ways slots per client.
	if got := p.Tab.FootprintBytes(); got != 1000*Ways*12 {
		t.Fatalf("slab footprint = %d, want %d", got, 1000*Ways*12)
	}
	// The plane is the registry plus the slab, nothing else.
	if got, want := p.FootprintBytes(), p.Reg.FootprintBytes()+1000*Ways*12; got != want {
		t.Fatalf("plane footprint = %d, want %d", got, want)
	}
}
