package mds

import (
	"sort"

	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/net"
	"dynmds/internal/sim"
)

// Distributed monotonic updates (§4.2): "fields like modification time
// and file size are monotonically increasing for most operations, such
// that replicas serving concurrent writers can periodically send their
// most recent value to the authority, which retains the maximum value
// seen thus far and initiates a callback for the latest information on
// client reads" — the GPFS shared-write technique.
//
// A Write op arriving at a node holding a replica of the target is
// absorbed locally: the node tracks its local maximum size and marks
// itself in the inode's unflushed-writers mask (Writers). A periodic flusher
// pushes local maxima to authorities. A Stat served at the authority
// while unflushed writers exist first calls back to them for their
// maxima.

// Writers maps each inode that replicas have absorbed writes for, not
// yet flushed, to the bitmask of those replica nodes. Almost no inode
// ever has an entry, so the cluster keeps one map, shared by its nodes,
// instead of a word in every inode; a mask that empties is deleted.
// A mask has one bit for each of at most namespace.MaxMDS nodes.
type Writers map[namespace.InodeID]uint64

// absorbWrite handles a Write op at a replica-holding non-authority.
func (m *MDS) absorbWrite(req *msg.Request) {
	target := req.Target
	if cur, ok := m.sizePending[target.ID]; !ok || req.Size > cur {
		m.sizePending[target.ID] = req.Size
	}
	m.writers[target.ID] |= 1 << uint(m.id)
	m.Stats.WritesAbsorbed++
	m.bumpPopularity(target)
	m.reply(req)
}

// applyWrite applies a Write at the authority: retain the maximum.
func (m *MDS) applyWrite(req *msg.Request) {
	m.raiseSize(req.Target, req.Size)
}

// raiseSize sets ino's size to size if that is larger: sizes only grow.
func (m *MDS) raiseSize(ino *namespace.Inode, size int64) {
	if tree := m.cluster.Tree(); size > tree.Size(ino) {
		tree.SetSize(ino, size)
	}
}

// flushWrites periodically sends local size maxima to authorities. The
// pending map is drained in sorted inode order: map iteration order
// would otherwise leak into message ordering and break reproducibility
// (serial runs were shielded only by the effects being order-free).
func (m *MDS) flushWrites(now sim.Time) {
	if m.failed || len(m.sizePending) == 0 {
		return
	}
	tree := m.cluster.Tree()
	ids := make([]namespace.InodeID, 0, len(m.sizePending))
	for id := range m.sizePending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		size := m.sizePending[id]
		ino, ok := tree.ByID(id)
		if !ok {
			continue // unlinked since
		}
		if auth := m.strat.Authority(ino); auth != m.id {
			peer := m.cluster.Node(auth)
			m.fab.Send(net.WriteFlush, m.id, auth, net.Bytes(net.WriteFlush), call0, func() {
				if peer.failed {
					return
				}
				peer.cpu.Submit(peer.svc(peerService), func() { peer.raiseSize(ino, size) })
			}, nil)
			m.clearUnflushed(ino)
			continue
		}
		m.raiseSize(ino, size)
		m.clearUnflushed(ino)
	}
	clear(m.sizePending)
}

func (m *MDS) clearUnflushed(ino *namespace.Inode) {
	if w := m.writers[ino.ID] &^ (1 << uint(m.id)); w != 0 {
		m.writers[ino.ID] = w
	} else {
		delete(m.writers, ino.ID)
	}
}

// statCallbackMask returns the set of peers holding unflushed size
// maxima for target — the writers a Stat must call back to (§4.2).
// Zero means the reply can go out immediately; the caller keeps that
// fast path allocation-free by checking before statCallbackSlow.
func (m *MDS) statCallbackMask(target *namespace.Inode) uint64 {
	return m.writers[target.ID] &^ (1 << uint(m.id))
}

// statCallbackSlow collects outstanding write maxima from the unflushed
// writers in mask, then replies. Callbacks are rare enough that the
// per-round-trip closures here do not matter.
func (m *MDS) statCallbackSlow(req *msg.Request, mask uint64) {
	target := req.Target
	done := func() { m.finishReply(req) }
	outstanding := 0
	for i := 0; i < m.cluster.NumMDS(); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		outstanding++
		peer := m.cluster.Node(i)
		m.fab.Send(net.StatCallback, m.id, i, net.Bytes(net.StatCallback), call0, func() {
			peer.cpu.Submit(peer.svc(peerService), func() {
				// Peer reports its local max and clears it.
				if size, ok := peer.sizePending[target.ID]; ok {
					peer.raiseSize(target, size)
					delete(peer.sizePending, target.ID)
				}
				peer.clearUnflushed(target)
				m.fab.Send(net.StatCallback, peer.id, m.id, net.Bytes(net.StatCallback), call0, func() {
					outstanding--
					if outstanding == 0 && !m.failed {
						done()
					}
				}, nil)
			})
		}, nil)
	}
}
