// Package snaptest damages finished snapshots for the tests of the code
// that restores them. The FNV trailer is a checksum anyone can
// recompute, so the files a restore must survive are ones whose trailer
// is right and whose contents are not: Stamp recomputes it, Edit
// rewrites one section under it, and Damaged lists files each wrong in
// one field: the three that took the hand-written decoders down — a
// panic on a negative length, a panic on an index past its table, and a
// loop bound of 2^62 — and a client RNG state no count of draws reaches.
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
	{"rng-state-off-its-stream", "pop", "client: client 0: RNG state",
		func(b []byte) []byte { // the shard count, the shard's clients, then client 0's state
			from, to := After(b, 2), After(b, 3)
			state, _ := binary.Uvarint(b[from:])
			return append(binary.AppendUvarint(b[:from:from], state+1), b[to:]...)
		}},
}
