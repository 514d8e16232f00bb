package partition

import "dynmds/internal/namespace"

// fnvOffset and fnvPrime are the FNV-1a constants.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// PathHash hashes an inode's full path without materialising the path
// string. Renaming any ancestor changes the hash — exactly the property
// that makes path-hashed distributions pay for directory renames.
func PathHash(n *namespace.Inode) uint64 {
	// Collect the chain root→n, then fold names in order.
	var stack [64]*namespace.Inode
	depth := 0
	for c := n; c != nil && depth < len(stack); c = c.Parent() {
		stack[depth] = c
		depth++
	}
	h := fnvOffset
	for i := depth - 1; i >= 0; i-- {
		h = fnvString(h, "/")
		h = fnvString(h, stack[i].Name())
	}
	return h
}

// NameHash hashes a (directory identity, entry name) pair; used for
// dynamically hashed directories (§4.3), where the authority for a
// directory entry "is defined by a hash of the file name and the
// directory inode number".
func NameHash(dir namespace.InodeID, name string) uint64 {
	h := fnvOffset
	for s := uint64(dir); s > 0; s >>= 8 {
		h = (h ^ (s & 0xff)) * fnvPrime
	}
	return fnvString(h, name)
}

// FileHash distributes every inode by a hash of its full path name, like
// Vesta, RAMA, zFS and Lustre (§3.1.2). Metadata is scattered: no
// directory locality, per-inode I/O, but statistically uniform load.
type FileHash struct {
	N int // cluster size
}

// Authority implements Strategy.
func (f FileHash) Authority(ino *namespace.Inode) int {
	return int(PathHash(ino) % uint64(f.N))
}

// AuthorityForName implements Strategy: hash of the would-be full path.
func (f FileHash) AuthorityForName(dir *namespace.Inode, name string) int {
	h := fnvString(PathHash(dir), "/")
	h = fnvString(h, name)
	return int(h % uint64(f.N))
}

// DirGranular implements Strategy: scattered per-inode storage.
func (f FileHash) DirGranular() bool { return false }

// NeedsPathTraversal implements Strategy: POSIX access checks require
// the prefix directories, which must be replicated to the serving node.
func (f FileHash) NeedsPathTraversal() bool { return true }

// ClientComputable implements Strategy.
func (f FileHash) ClientComputable() bool { return true }

// DirHash distributes metadata by a hash of the directory portion of the
// path, so a directory's contents are grouped on one MDS and on disk
// (§3.1.2), preserving prefetch while still ignoring hierarchy above the
// directory.
type DirHash struct {
	N int
}

// Authority implements Strategy. A directory groups with its own
// contents; a file with its containing directory.
func (d DirHash) Authority(ino *namespace.Inode) int {
	dir := ino
	if !ino.IsDir() {
		if p := ino.Parent(); p != nil {
			dir = p
		}
	}
	return int(PathHash(dir) % uint64(d.N))
}

// AuthorityForName implements Strategy: new entries group with their
// containing directory.
func (d DirHash) AuthorityForName(dir *namespace.Inode, name string) int {
	return int(PathHash(dir) % uint64(d.N))
}

// DirGranular implements Strategy: directories store embedded inodes.
func (d DirHash) DirGranular() bool { return true }

// NeedsPathTraversal implements Strategy.
func (d DirHash) NeedsPathTraversal() bool { return true }

// ClientComputable implements Strategy.
func (d DirHash) ClientComputable() bool { return true }
