package snap

import (
	"math"
	"strings"
	"testing"
)

// decoder returns a decoding Codec over what w holds.
func decoder(t *testing.T, w *Writer) *Codec {
	t.Helper()
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return Decoder(r)
}

// TestRoundTrip pins the codec contract: one walk over every scalar
// kind, run encoding and then decoding across two sections, leaves the
// decoding side's fields equal to the encoding side's — and the bytes
// are the ones Writer's own appenders produce.
func TestRoundTrip(t *testing.T) {
	type state struct {
		u0, umax uint64
		u32      uint32
		i1, imin int64
		i        int
		yes, no  bool
		nz, inf  float64
		nan      float64
		empty, s string
		beta     uint64
	}
	walk := func(c *Codec, s *state) {
		c.Section("alpha", func(c *Codec) {
			U(c, &s.u0)
			U(c, &s.umax)
			U(c, &s.u32)
			I(c, &s.i1)
			I(c, &s.imin)
			I(c, &s.i)
			c.Bool(&s.yes)
			c.Bool(&s.no)
			c.F64(&s.nz)
			c.F64(&s.inf)
			c.F64(&s.nan)
			c.String(&s.empty)
			c.String(&s.s)
		})
		c.Section("beta", func(c *Codec) { U(c, &s.beta) })
	}
	in := state{
		umax: math.MaxUint64, u32: math.MaxUint32, i1: -1, imin: math.MinInt64, i: -42, yes: true,
		nz: math.Copysign(0, -1), inf: math.Inf(1), nan: math.NaN(), s: "päth/with/ütf8", beta: 7,
	}
	w := NewWriter()
	enc := Encoder(w)
	if walk(enc, &in); enc.Err() != nil {
		t.Fatal(enc.Err())
	}

	ref := NewWriter()
	ref.Begin("alpha")
	ref.U64(0)
	ref.U64(math.MaxUint64)
	ref.U64(math.MaxUint32)
	ref.I64(-1)
	ref.I64(math.MinInt64)
	ref.Int(-42)
	ref.Bool(true)
	ref.Bool(false)
	ref.F64(math.Copysign(0, -1))
	ref.F64(math.Inf(1))
	ref.F64(math.NaN())
	ref.String("")
	ref.String("päth/with/ütf8")
	ref.End()
	ref.Begin("beta")
	ref.U64(7)
	ref.End()
	data := w.Bytes()
	if string(data) != string(ref.Bytes()) {
		t.Fatal("the walk's bytes differ from the Writer appenders'")
	}

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var out state
	dec := Decoder(r)
	if walk(dec, &out); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if math.Float64bits(out.nz) != math.Float64bits(in.nz) || !math.IsNaN(out.nan) {
		t.Errorf("F64 -0.0 bits = %x, NaN = %v", math.Float64bits(out.nz), out.nan)
	}
	out.nan, in.nan = 0, 0
	if out != in {
		t.Errorf("decoded %+v, want %+v", out, in)
	}
	dec.Section("gamma", func(*Codec) { t.Error("walked a section past the end of the stream") })
	if dec.Err() == nil || !strings.Contains(dec.Err().Error(), "ends") {
		t.Errorf("section past the end of the stream: %v", dec.Err())
	}
}

// TestSectionNameChecked: a walk that meets another section than the
// one it names does not run.
func TestSectionNameChecked(t *testing.T) {
	w := NewWriter()
	w.Begin("fault")
	w.U64(1)
	w.End()
	dec := decoder(t, w)
	dec.Section("fabric", func(*Codec) { t.Error("walked the wrong section") })
	if dec.Err() == nil || !strings.Contains(dec.Err().Error(), `section "fault" where "fabric" expected`) {
		t.Fatalf("wrong section: %v", dec.Err())
	}
}

// TestFirstSectionNotSkipped is a regression test: a fresh Reader's
// first section must be the first one written rather than skipped (the
// section-skip logic starts from the previous section's end, which must
// be zero before any section has been read).
func TestFirstSectionNotSkipped(t *testing.T) {
	w := NewWriter()
	w.Begin("only")
	w.U64(99)
	w.End()
	dec, got := decoder(t, w), uint64(0)
	dec.Section("only", func(c *Codec) { U(c, &got) })
	if dec.Err() != nil || got != 99 {
		t.Fatalf("payload = %d, %v; want 99", got, dec.Err())
	}
}

// TestSectionSkipsUnreadRemainder: a walk that ignores trailing fields
// of one section still lands on the next section cleanly.
func TestSectionSkipsUnreadRemainder(t *testing.T) {
	w := NewWriter()
	w.Begin("fat")
	for i := 0; i < 16; i++ {
		w.U64(uint64(i))
	}
	w.End()
	w.Begin("thin")
	w.Bool(true)
	w.End()
	dec := decoder(t, w)
	var first uint64
	var thin bool
	dec.Section("fat", func(c *Codec) { U(c, &first) }) // one of sixteen fields
	dec.Section("thin", func(c *Codec) { c.Bool(&thin) })
	if dec.Err() != nil || !thin {
		t.Fatalf("thin payload lost after a partial read: %v, %v", thin, dec.Err())
	}
}

// TestChecksumCatchesCorruption flips each byte of a snapshot in turn;
// every mutation must be rejected before any section is served.
func TestChecksumCatchesCorruption(t *testing.T) {
	w := NewWriter()
	w.Begin("s")
	w.U64(123456)
	w.String("payload")
	w.End()
	good := w.Bytes()
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := NewReader(bad); err == nil {
			t.Fatalf("corruption at byte %d of %d accepted", i, len(good))
		}
	}
	if _, err := NewReader(good[:4]); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated snapshot: %v", err)
	}
}

// TestReadPastSectionEndPanics keeps its name from when a short read
// was a panic. The checksum is one anyone can recompute, so a section
// that ends before its walk does is outside input: an error, and the
// field it would have filled is left alone.
func TestReadPastSectionEndPanics(t *testing.T) {
	w := NewWriter()
	w.Begin("s")
	w.U64(1)
	w.End()
	dec := decoder(t, w)
	a, b, s := uint64(0), uint64(77), "kept"
	dec.Section("s", func(c *Codec) {
		U(c, &a)
		U(c, &b)
		c.String(&s)
	})
	if dec.Err() == nil || !strings.Contains(dec.Err().Error(), "past the end") {
		t.Fatalf("read past section end: %v", dec.Err())
	}
	if a != 1 || b != 77 || s != "kept" {
		t.Errorf("fields after a short read = %d, %d, %q; want 1, 77, kept", a, b, s)
	}
}

// TestCodecRefusals drives each check the read direction makes on
// outside input, and that the first error is the last thing a walk
// does: nothing later is consumed, allocated or changed.
func TestCodecRefusals(t *testing.T) {
	cases := []struct {
		name  string
		write func(w *Writer)
		read  func(c *Codec)
		want  string
	}{
		{"count past the bytes left", func(w *Writer) { w.Int(1000); w.U64(1) },
			func(c *Codec) { n := 0; c.Len(&n) }, "count 1000 with 1 bytes left"},
		{"negative count", func(w *Writer) { w.Int(-64) },
			func(c *Codec) { n := 0; c.Len(&n) }, "count -64 with 0 bytes left"},
		{"slice past the bytes left", func(w *Writer) { w.Int(1 << 40) },
			func(c *Codec) { var s []uint64; Slice(c, &s) }, "count 1099511627776"},
		{"index past its table", func(w *Writer) { w.Int(63) },
			func(c *Codec) { i := 0; Index(c, &i, 4, "test: slot") }, "test: slot: index 63 outside its table of 4"},
		{"negative index", func(w *Writer) { w.Int(-1) },
			func(c *Codec) { i := 0; Index(c, &i, 4, "test: slot") }, "index -1 outside"},
		{"unsigned index past its table", func(w *Writer) { w.U64(3) },
			func(c *Codec) { var i uint8; Index(c, &i, 3, "test: class") }, "test: class: index 3 outside its table of 3"},
		{"sparse index past its table", func(w *Writer) { w.Int(1); w.Int(9); w.U64(5) },
			func(c *Codec) {
				Sparse(c, 8, "test: slot", nil, func(int) { t.Error("slot visited") })
			}, "index 9 outside its table of 8"},
		{"size the run did not build", func(w *Writer) { w.Int(40000) },
			func(c *Codec) { c.Same(20000, "test: slab") }, "test: slab: snapshot has 40000, this run built 20000"},
		{"table the run does not have", func(w *Writer) { w.Int(8) },
			func(c *Codec) { c.Same(-1, "test: lanes") }, "test: lanes: snapshot has 8, this run built -1"},
		{"state the run does not have", func(w *Writer) { w.Bool(true) },
			func(c *Codec) {
				if c.Has(false, "test: plane") {
					t.Error("Has reported state the run does not have")
				}
			}, "test: plane: present in the snapshot true, in this run false"},
		{"state the snapshot does not have", func(w *Writer) { w.Bool(false) },
			func(c *Codec) {
				if c.Has(true, "test: plane") {
					t.Error("Has reported state the snapshot does not have")
				}
			}, "present in the snapshot false"},
		{"optional count the run does not have", func(w *Writer) { w.Int(3) },
			func(c *Codec) {
				if n := 0; c.OptLen(false, &n, "test: objects") || n != 0 {
					t.Error("OptLen reported elements the run has no place for")
				}
			}, "test: objects: present in the snapshot true, in this run false"},
		{"optional count past the bytes left", func(w *Writer) { w.Int(3) },
			func(c *Codec) {
				if n := 0; c.OptLen(true, &n, "test: objects") || n != 0 {
					t.Error("OptLen reported a count it refused")
				}
			}, "count 3 with 0 bytes left"},
		{"narrow unsigned field", func(w *Writer) { w.U64(1 << 32) },
			func(c *Codec) { var v uint32; U(c, &v) }, "4294967296 overflows its uint32 field"},
		{"narrow signed field", func(w *Writer) { w.I64(-129) },
			func(c *Codec) { var v int8; I(c, &v) }, "-129 overflows its int8 field"},
		{"boolean", func(w *Writer) { w.U64(2) },
			func(c *Codec) { var v bool; c.Bool(&v) }, "boolean 2"},
		{"string past the bytes left", func(w *Writer) { w.U64(50); w.U64(0) },
			func(c *Codec) { var s string; c.String(&s) }, "past the end"},
		{"map count past the bytes left", func(w *Writer) { w.Int(5); w.U64(1) },
			func(c *Codec) {
				Map(c, map[uint64]int{}, func(*uint64, *int) { t.Error("entry visited") })
			}, "count 5 with 1 bytes left"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWriter()
			w.Begin("s")
			tc.write(w)
			w.End()
			w.Begin("next")
			w.U64(7)
			w.End()
			dec := decoder(t, w)
			var after struct {
				u    uint64
				n, i int
				s    []uint64
				ok   bool
			}
			after.u, after.n, after.i = 5, 5, 5
			dec.Section("s", func(c *Codec) {
				tc.read(c)
				at := c.r.pos
				U(c, &after.u)
				c.Len(&after.n)
				Index(c, &after.i, 100, "after")
				Slice(c, &after.s)
				c.Bool(&after.ok)
				c.Same(1, "after")
				if c.Has(true, "after") || c.OptLen(true, &after.i, "after") {
					t.Error("optional state reported after an error")
				}
				if c.r.pos != at {
					t.Errorf("consumed %d bytes after the first error", c.r.pos-at)
				}
			})
			dec.Section("next", func(*Codec) { t.Error("walked a section after the first error") })
			if dec.Err() == nil || !strings.Contains(dec.Err().Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", dec.Err(), tc.want)
			}
			// Fields keep what they held; counts, which walks loop over, are zero.
			if after.u != 5 || after.n != 0 || after.i != 0 || after.s != nil || after.ok {
				t.Errorf("fields after the first error: %+v", after)
			}
		})
	}
}

// TestSparseAndMap: the two walks whose directions differ in shape
// re-encode what they decoded byte for byte, in ascending order.
func TestSparseAndMap(t *testing.T) {
	type state struct {
		table [16]uint32
		m     map[int64]uint64
	}
	walk := func(c *Codec, s *state) {
		c.Section("s", func(c *Codec) {
			Sparse(c, len(s.table), "test: slot",
				func(i int) bool { return s.table[i] != 0 },
				func(i int) { U(c, &s.table[i]) })
			Map(c, s.m, func(k *int64, v *uint64) { I(c, k); U(c, v) })
		})
	}
	in := state{m: map[int64]uint64{9: 1, -3: 2, 4: 3}}
	in.table[0], in.table[7], in.table[15] = 1, 70, 150
	w := NewWriter()
	walk(Encoder(w), &in)
	ref := NewWriter()
	ref.Begin("s")
	ref.Int(3)
	for _, iv := range [][2]int{{0, 1}, {7, 70}, {15, 150}} {
		ref.Int(iv[0])
		ref.U64(uint64(iv[1]))
	}
	ref.Int(3)
	for _, kv := range [][2]int64{{-3, 2}, {4, 3}, {9, 1}} {
		ref.I64(kv[0])
		ref.U64(uint64(kv[1]))
	}
	ref.End()
	data := w.Bytes()
	if string(data) != string(ref.Bytes()) {
		t.Fatalf("sparse/map bytes:\n got %x\nwant %x", data, ref.Bytes())
	}
	out := state{m: map[int64]uint64{}}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	dec := Decoder(r)
	if walk(dec, &out); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if out.table != in.table || len(out.m) != 3 || out.m[9] != 1 || out.m[-3] != 2 || out.m[4] != 3 {
		t.Errorf("decoded %+v, want %+v", out, in)
	}
}

// TestWriterGrowAllocFree pins what Grow is for: a writer given room for
// its sections and the trailer never grows again — Bytes returns the
// very buffer Grow made — and Reader.Len is the snapshot's length.
func TestWriterGrowAllocFree(t *testing.T) {
	w := NewWriter()
	w.U64(7) // Grow keeps what is already written
	w.Grow(2048 + 8)
	room := cap(w.buf)
	w.Begin("body")
	for w.Len() < 2040 {
		w.U64(uint64(w.Len()))
	}
	w.End()
	data := w.Bytes()
	if cap(data) != room || &data[0] != &w.buf[0] {
		t.Fatalf("the writer outgrew the %d bytes Grow gave it (now %d)", room, cap(data))
	}
	if len(data) != w.Len()+8 || data[0] != 7 {
		t.Fatalf("snapshot of %d bytes from a writer of %d, first byte %d", len(data), w.Len(), data[0])
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(data) {
		t.Fatalf("Reader.Len = %d over %d bytes", r.Len(), len(data))
	}
}
