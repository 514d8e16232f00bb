package namespace

import "strings"

// Names is append-only storage for entry names: it copies each name
// into the current block and returns a string over the copy, and starts
// a fresh block when the current one lacks room. No byte is ever
// overwritten or reused, so a string it returned stays valid for as
// long as anything holds it, and holds its block alive that long.
//
// A name lives where its holders die together. The workload's issuers
// (one Names each: a run's cells share no block across workers) write
// a request's name into theirs, so an issuer's block is held only by
// the requests still carrying one of its names; the tree copies every
// name it keeps into the Names of the inode's created page, or its own
// for a renamed base inode, so a kept name dies with its inode's page.
// The zero Names is ready to use; it must not be copied once used.
type Names struct {
	b strings.Builder
}

// nameBlock is the size of the blocks Add starts, and of the tree's
// own: 256 bytes hold about 25 generated names for one malloc, and a
// closed-loop run's hundreds of issuers hold one such block apiece.
const nameBlock = 256

// Add returns a string of b's bytes, copied into the current block.
func (s *Names) Add(b []byte) string {
	s.reserve(len(b), nameBlock)
	s.b.Write(b)
	return s.last(len(b))
}

// addString copies name in; a fresh block takes room bytes, or
// len(name) if more.
func (s *Names) addString(name string, room int) string {
	s.reserve(len(name), room)
	s.b.WriteString(name)
	return s.last(len(name))
}

// reserve starts a fresh block of max(n, room) bytes unless n more fit
// in the current one. Reset lets go of the old block without touching
// it: the strings over it keep their bytes.
func (s *Names) reserve(n, room int) {
	if s.b.Cap()-s.b.Len() < n {
		s.b.Reset()
		s.b.Grow(max(n, room))
	}
}

// last returns the last n bytes written, as a string over the block.
func (s *Names) last(n int) string {
	all := s.b.String()
	return all[len(all)-n:]
}
