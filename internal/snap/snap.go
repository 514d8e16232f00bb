// Package snap is the serialization codec for endurance checkpoints
// (internal/endure). A snapshot is a sequence of named sections, each a
// length-prefixed byte run of varint-encoded scalars and strings,
// followed by an FNV-64 trailer over everything before it.
//
// State is declared once. Every package that owns mutable simulation
// state has one walk, func (x *T) Snap(c *snap.Codec), that names its
// fields in order; the Codec runs that walk in either direction, over a
// Writer to checkpoint or a Reader to restore. No reflection and no
// registry: the set of serialized state is what the Snap methods list.
//
// The trailer is a checksum anyone can recompute, so the read direction
// trusts nothing it has not checked: a short section, a count larger
// than the bytes that could hold it, an index outside its table or a
// size the restoring run did not build is the Codec's first error, and
// after the first error every call is a no-op.
//
// Versioning lives one level up (internal/endure's file header).
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// Writer accumulates sections into a byte buffer.
type Writer struct {
	buf []byte
	// section bookkeeping: start of the current section's length prefix.
	secAt   int
	secName string
}

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer { return &Writer{} }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Grow makes room for n more bytes, so a caller that knows roughly what
// it is about to write pays one allocation in place of append's
// doublings. Count the 8 bytes of Bytes' trailer in.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.buf = append(make([]byte, 0, len(w.buf)+n), w.buf...)
	}
}

// Begin opens a named section. Sections cannot nest.
func (w *Writer) Begin(name string) {
	if w.secName != "" {
		panic("snap: nested section " + name + " inside " + w.secName)
	}
	w.secName = name
	w.String(name)
	// Reserve a fixed 8-byte length slot so we can patch it after End.
	w.secAt = len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// End closes the current section, patching its length prefix.
func (w *Writer) End() {
	if w.secName == "" {
		panic("snap: End outside section")
	}
	n := len(w.buf) - w.secAt - 8
	binary.LittleEndian.PutUint64(w.buf[w.secAt:], uint64(n))
	w.secName = ""
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a signed varint (zigzag).
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a boolean.
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// F64 appends a float64 bit-exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes returns the finished snapshot: all sections plus an FNV-64
// checksum trailer. The writer must not be reused after Bytes.
func (w *Writer) Bytes() []byte {
	if w.secName != "" {
		panic("snap: Bytes inside open section " + w.secName)
	}
	h := fnv.New64a()
	h.Write(w.buf)
	var tr [8]byte
	binary.LittleEndian.PutUint64(tr[:], h.Sum64())
	return append(w.buf, tr[:]...)
}

// Reader holds a snapshot produced by Writer; a decoding Codec reads it.
type Reader struct {
	buf []byte
	pos int
	end int // current section end; 0 before the first section
}

// NewReader validates the checksum trailer and returns a reader over
// the section stream.
func NewReader(b []byte) (*Reader, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("snap: truncated snapshot (%d bytes)", len(b))
	}
	body, tr := b[:len(b)-8], b[len(b)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(tr); got != want {
		return nil, fmt.Errorf("snap: checksum mismatch (got %016x want %016x)", got, want)
	}
	return &Reader{buf: body}, nil
}

// Len returns the length of the snapshot the reader was made over,
// trailer included.
func (r *Reader) Len() int { return len(r.buf) + 8 }

// section opens the next section and returns its name, "" at the end of
// the stream. It skips any unread remainder of the previous section
// (forward compatibility: a reader may ignore trailing fields it does
// not understand).
func (r *Reader) section() (string, error) {
	r.pos = r.end
	r.end = len(r.buf)
	if r.pos >= len(r.buf) {
		return "", nil
	}
	n, ok := r.uvarint()
	name, ok2 := r.bytes(n)
	if !ok || !ok2 || r.pos+8 > len(r.buf) {
		return "", fmt.Errorf("snap: truncated section header")
	}
	size := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	if uint64(len(r.buf)-r.pos) < size {
		return "", fmt.Errorf("snap: section %q length %d exceeds buffer", name, size)
	}
	r.end = r.pos + int(size)
	return string(name), nil
}

func (r *Reader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.buf[r.pos:r.end])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return v, true
}

func (r *Reader) varint() (int64, bool) {
	v, n := binary.Varint(r.buf[r.pos:r.end])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return v, true
}

func (r *Reader) bytes(n uint64) ([]byte, bool) {
	if uint64(r.end-r.pos) < n {
		return nil, false
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, true
}

// Codec runs a state walk in one direction: encoding onto a Writer or
// decoding from a Reader. Field methods take pointers — the value is
// written from the field, or read into it. Reading, the first error
// sticks: every later call does nothing, consumes nothing, and leaves
// its field (a count: zero) alone, so a walk needs no error plumbing of
// its own and its caller checks Err once. Writing cannot fail; an error
// a walk records on its own (Failf) is for its caller to find.
type Codec struct {
	w   *Writer
	r   *Reader
	err error
}

// Encoder returns a Codec that writes walks onto w.
func Encoder(w *Writer) *Codec { return &Codec{w: w} }

// Decoder returns a Codec that reads walks from r.
func Decoder(r *Reader) *Codec { return &Codec{r: r} }

// Reading reports the direction. A walk asks only where the two
// directions do different work: gathering or sorting what to write;
// allocating, resolving an ID or rebuilding a derived index to read.
func (c *Codec) Reading() bool { return c.r != nil }

// Err returns the first error of the walk so far.
func (c *Codec) Err() error { return c.err }

// Failf records an error found by the walk itself (an ID that does not
// resolve, a window outside its ring), unless one is already recorded.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *Codec) short() { c.Failf("snap: read past the end of the section") }

// Unsigned and Signed are the integer kinds U and I carry.
type (
	Unsigned interface {
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
	}
	Signed interface {
		~int | ~int8 | ~int16 | ~int32 | ~int64
	}
)

// U carries an unsigned integer of any width as an unsigned varint. A
// value in the file that does not fit the field is an error.
func U[T Unsigned](c *Codec, p *T) {
	if c.w != nil {
		c.w.U64(uint64(*p))
		return
	}
	v, ok := c.uvarint()
	switch {
	case !ok:
	case uint64(T(v)) != v:
		c.Failf("snap: %d overflows its %T field", v, *p)
	default:
		*p = T(v)
	}
}

// I carries a signed integer of any width as a zigzag varint.
func I[T Signed](c *Codec, p *T) {
	if c.w != nil {
		c.w.I64(int64(*p))
		return
	}
	v, ok := c.varint()
	switch {
	case !ok:
	case int64(T(v)) != v:
		c.Failf("snap: %d overflows its %T field", v, *p)
	default:
		*p = T(v)
	}
}

// uvarint and varint read for U and I: not ok after an error or at the
// end of the section, which is then the error.
func (c *Codec) uvarint() (uint64, bool) {
	if c.err != nil {
		return 0, false
	}
	v, ok := c.r.uvarint()
	if !ok {
		c.short()
	}
	return v, ok
}

func (c *Codec) varint() (int64, bool) {
	if c.err != nil {
		return 0, false
	}
	v, ok := c.r.varint()
	if !ok {
		c.short()
	}
	return v, ok
}

// Bool carries a boolean.
func (c *Codec) Bool(p *bool) {
	if c.w != nil {
		c.w.Bool(*p)
		return
	}
	v, ok := c.uvarint()
	switch {
	case !ok:
	case v > 1:
		c.Failf("snap: boolean %d", v)
	default:
		*p = v == 1
	}
}

// F64 carries a float64 bit-exactly.
func (c *Codec) F64(p *float64) {
	v := math.Float64bits(*p)
	U(c, &v)
	*p = math.Float64frombits(v)
}

// String carries a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.w != nil {
		c.w.String(*p)
		return
	}
	if n, ok := c.uvarint(); ok {
		if b, ok := c.r.bytes(n); ok {
			*p = string(b)
		} else {
			c.short()
		}
	}
}

// Len carries a count that the walk then loops over or allocates for.
// Reading, it refuses a negative count and one larger than the bytes
// left in the section — every element takes at least one byte — before
// anything is allocated or looped, and leaves zero after any error.
func (c *Codec) Len(p *int) {
	I(c, p)
	c.bound(p)
}

func (c *Codec) bound(p *int) {
	if c.r == nil {
		return
	}
	if left := c.r.end - c.r.pos; c.err == nil && (*p < 0 || *p > left) {
		c.Failf("snap: count %d with %d bytes left in the section", *p, left)
	}
	if c.err != nil {
		*p = 0
	}
}

// OptLen is Len for state a configuration may not have: -1 in the file
// means absent. The snapshot and the restoring run must agree on
// present; OptLen reports whether the elements follow.
func (c *Codec) OptLen(present bool, p *int, what string) bool {
	if !present {
		*p = -1
	}
	I(c, p)
	if c.err == nil && (*p >= 0) != present {
		c.Failf("%s: present in the snapshot %v, in this run %v", what, *p >= 0, present)
	}
	if !present || c.err != nil {
		*p = 0
		return false
	}
	c.bound(p)
	return c.err == nil
}

// Same carries a size the restoring run has already built from its
// configuration (a table, a slab, a node count; -1 for a table this
// configuration does not have): written, or read and compared. It is
// never a loop bound taken from the file, so it may exceed the bytes
// left.
func (c *Codec) Same(have int, what string) {
	got := have
	I(c, &got)
	if got != have {
		c.Failf("%s: snapshot has %d, this run built %d", what, got, have)
	}
}

// Has carries whether optional state is present. The snapshot and the
// restoring run must agree; Has reports whether the state follows.
func (c *Codec) Has(present bool, what string) bool {
	got := present
	c.Bool(&got)
	if got != present {
		c.Failf("%s: present in the snapshot %v, in this run %v", what, got, present)
	}
	return present && c.err == nil
}

// Index carries a position in a table of n entries, in the varint
// flavour of its type; a position read from the file is refused outside
// [0, n) before the walk can index with it.
func Index[T Unsigned | Signed](c *Codec, p *T, n int, what string) {
	i := int64(*p)
	if zero := T(0); zero-1 < zero {
		I(c, &i)
	} else {
		u := uint64(i)
		U(c, &u)
		i = int64(u) // past 2^63: negative, refused below
	}
	if c.r == nil || c.err != nil {
		return
	}
	if i < 0 || i >= int64(n) || int64(T(i)) != i {
		c.Failf("%s: index %d outside its table of %d", what, i, n)
		return
	}
	*p = T(i)
}

// Slice carries len(*s) as a Len and, reading, makes *s that long (nil
// when empty); the walk then ranges over it.
func Slice[T any](c *Codec, s *[]T) {
	n := len(*s)
	c.Len(&n)
	if c.r != nil {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
}

// Sparse carries the occupied slots of a table of n as a count and then
// (index, slot) for each, ascending: written for every i that occupied
// reports, read for as many as the file says, wherever it says.
func Sparse(c *Codec, n int, what string, occupied func(i int) bool, slot func(i int)) {
	count := 0
	if c.w != nil {
		for i := 0; i < n; i++ {
			if occupied(i) {
				count++
			}
		}
	}
	c.Len(&count)
	for i := 0; count > 0 && c.err == nil; count, i = count-1, i+1 {
		for c.w != nil && !occupied(i) {
			i++
		}
		Index(c, &i, n, what)
		if c.err == nil {
			slot(i)
		}
	}
}

// Map carries a map with integer keys as a count and then entry(key,
// value) for each: written in ascending key order, read into m in the
// order of the file.
func Map[K Unsigned | Signed, V any](c *Codec, m map[K]V, entry func(*K, *V)) {
	n := len(m)
	c.Len(&n)
	if c.w != nil {
		keys := make([]K, 0, n)
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			v := m[k]
			entry(&k, &v)
		}
		return
	}
	for ; n > 0 && c.err == nil; n-- {
		var k K
		var v V
		if entry(&k, &v); c.err == nil {
			m[k] = v
		}
	}
}

// Section runs walk as the named section: opened and closed around it
// when writing; when reading, the next section of the stream, which
// must carry that name.
func (c *Codec) Section(name string, walk func(*Codec)) {
	switch {
	case c.w != nil:
		c.w.Begin(name)
		walk(c)
		c.w.End()
	case c.err != nil:
	default:
		got, err := c.r.section()
		switch {
		case err != nil:
			c.Failf("snap: reading section %q: %w", name, err)
		case got == "":
			c.Failf("snap: snapshot ends where section %q expected", name)
		case got != name:
			c.Failf("snap: section %q where %q expected", got, name)
		default:
			walk(c)
		}
	}
}
