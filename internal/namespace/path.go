package namespace

// Path segmentation.
//
// Resolving a path used to strings.Split every Lookup, allocating a
// slice plus one substring header per component. SegmentIter walks the
// same components as substrings of the original path — no allocation at
// all.

// SegmentIter iterates over the slash-separated components of a path.
// The zero value is empty; construct with Segments.
type SegmentIter struct {
	path string
	pos  int
}

// Segments returns an iterator over path's non-empty components.
// Leading, trailing, and repeated slashes are skipped, matching the
// semantics of strings.Split + "skip empty parts".
func Segments(path string) SegmentIter {
	return SegmentIter{path: path}
}

// Next returns the next component as a substring of the original path
// (no copy), and whether one was present.
func (it *SegmentIter) Next() (string, bool) {
	p := it.path
	i := it.pos
	for i < len(p) && p[i] == '/' {
		i++
	}
	if i == len(p) {
		it.pos = i
		return "", false
	}
	start := i
	for i < len(p) && p[i] != '/' {
		i++
	}
	it.pos = i
	return p[start:i], true
}
