// Package snaptest damages finished snapshots for the tests of the code
// that restores them. The FNV trailer is a checksum anyone can
// recompute, so the files a restore must survive are ones whose trailer
// is right and whose contents are not: Stamp recomputes it, Edit
// rewrites one section under it, and Damaged lists files each wrong in
// one field: the three that took the hand-written decoders down — a
// panic on a negative length, a panic on an index past its table, and a
// loop bound of 2^62 — a client draw count past 32 bits and one past 31,
// a hint naming an MDS past the cluster (restored, it panicked at the
// first arrival), a tombstone list that repeats an ID or disagrees
// with the base-delete count, and run-created inodes listed in
// descending ID; Overcount makes a count too large for the
// structure it fills.
package snaptest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Stamp returns body followed by the trailer that makes it a snapshot
// snap.NewReader accepts.
func Stamp(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body[:len(body):len(body)], h.Sum64())
}

// Edit returns a copy of the snapshot data with the body of the named
// section replaced by edit's result, its length prefix and the trailer
// made to match.
func Edit(data []byte, section string, edit func(body []byte) []byte) ([]byte, error) {
	body := data[:len(data)-8]
	for pos := 0; pos < len(body); {
		n, w := binary.Uvarint(body[pos:])
		if w <= 0 || uint64(len(body)-pos-w) < n+8 {
			break
		}
		name := string(body[pos+w : pos+w+int(n)])
		at := pos + w + int(n) + 8
		size := binary.LittleEndian.Uint64(body[at-8:])
		if uint64(len(body)-at) < size {
			break
		}
		end := at + int(size)
		if name != section {
			pos = end
			continue
		}
		out := append([]byte(nil), body[:at]...)
		out = append(out, edit(append([]byte(nil), body[at:end]...))...)
		binary.LittleEndian.PutUint64(out[at-8:], uint64(len(out)-at))
		return Stamp(append(out, body[end:]...)), nil
	}
	return nil, fmt.Errorf("snaptest: no section %q in the snapshot", section)
}

// After returns the offset in body just past its first n varints.
func After(body []byte, n int) int {
	pos := 0
	for ; n > 0; n-- {
		_, w := binary.Uvarint(body[pos:])
		pos += w
	}
	return pos
}

// Overcount returns body with the signed count that follows the first
// skip varints from offset at set to count, and count zero bytes
// appended: the count passes a bytes-left bound, so only a limit of the
// walk itself can refuse it.
func Overcount(body []byte, at, skip int, count int64) []byte {
	from := at + After(body[at:], skip)
	to := from + After(body[from:], 1)
	out := binary.AppendVarint(append([]byte(nil), body[:from]...), count)
	out = append(out, body[to:]...)
	return append(out, make([]byte, count)...)
}

// Damaged are checkpoints of a cluster with a subtree table and a drop
// schedule, each wrong in one field; Want is part of the error a
// restore reports for it. The offsets follow cluster's section walks.
var Damaged = []struct {
	Name, Section, Want string
	Edit                func(body []byte) []byte
}{
	{"series-length-negative", "series", "count -64 with",
		func(b []byte) []byte { // the reply-series count, then the first series' length
			b[After(b, 1)] = 0x7f
			return b
		}},
	{"delegation-past-the-cluster", "partition", "partition: delegation: index 63 outside its table of",
		func(b []byte) []byte { // has-table, nodes, epoch, count, the first root, then its node
			b[After(b, 5)] = 0x7e
			return b
		}},
	{"fault-draws-2^62", "fault", "fault draws",
		func(b []byte) []byte { // has-plane, then the draw count
			from, to := After(b, 1), After(b, 2)
			return append(binary.AppendUvarint(b[:from:from], 1<<62), b[to:]...)
		}},
	{"draw-count-past-32-bits", "pop", "4294967296 overflows its uint32 field",
		func(b []byte) []byte { // the client count, then client 0's draw count
			from, to := After(b, 1), After(b, 2)
			return append(binary.AppendUvarint(b[:from:from], 1<<32), b[to:]...)
		}},
	{"draw-count-past-31-bits", "pop", "past the 31-bit count",
		func(b []byte) []byte { // the client count, then client 0's draw count
			from, to := After(b, 1), After(b, 2)
			return append(binary.AppendUvarint(b[:from:from], 1<<31), b[to:]...)
		}},
	{"hint-authority-past-the-cluster", "pop", "names MDS 100 of a cluster of",
		func(b []byte) []byte { // the section ends with the last hint slot: key low, authority high
			last := 0
			for pos := 0; pos < len(b); pos += After(b[pos:], 1) {
				last = pos
			}
			slot, _ := binary.Uvarint(b[last:])
			return binary.AppendUvarint(b[:last:last], slot&(1<<32-1)|100<<32)
		}},
	{"tombstone-listed-twice", "tree", "listed twice",
		func(b []byte) []byte { // six counters, the tombstone count, the first ID, then the second's delta
			from, to := After(b, 8), After(b, 9)
			return append(binary.AppendUvarint(b[:from:from], 0), b[to:]...)
		}},
	{"created-ids-descending", "tree", "out of range or order",
		func(b []byte) []byte { // six counters, the tombstone count and deltas, the created count, then the first created ID
			maxID, _ := binary.Uvarint(b)
			tombs, _ := binary.Varint(b[After(b, 6):])
			from := After(b, 8+int(tombs))
			to := from + After(b[from:], 1)
			return append(binary.AppendUvarint(b[:from:from], maxID), b[to:]...)
		}},
	{"tombstones-short-of-base-deletes", "tree", "tombstones for",
		func(b []byte) []byte { // MaxID, files, dirs, then the base-delete count
			from, to := After(b, 3), After(b, 4)
			deletes, _ := binary.Uvarint(b[from:])
			return append(binary.AppendUvarint(b[:from:from], deletes+1), b[to:]...)
		}},
}
