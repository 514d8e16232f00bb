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
			m.fab.Send(net.WriteFlush, m.id, auth, net.Bytes(net.WriteFlush), flushArrive, m.cluster.Node(auth), &sizeFlush{ino, size})
			m.clearUnflushed(ino)
			continue
		}
		m.raiseSize(ino, size)
		m.clearUnflushed(ino)
	}
	clear(m.sizePending)
}

// sizeFlush is one flushed size maximum on its way to the authority.
type sizeFlush struct {
	ino  *namespace.Inode
	size int64
}

func flushArrive(a, b any) {
	if peer := a.(*MDS); !peer.failed {
		peer.cpu.SubmitCall(peer.svc(peerService), flushApply, peer, b)
	}
}

func flushApply(a, b any) {
	f := b.(*sizeFlush)
	a.(*MDS).raiseSize(f.ino, f.size)
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
// writers in mask, then replies. Callbacks are rare: the round's one
// carrier rides every hop.
func (m *MDS) statCallbackSlow(req *msg.Request, mask uint64) {
	round := &statRound{m: m, req: req}
	for i := 0; i < m.cluster.NumMDS(); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		round.outstanding++
		m.fab.Send(net.StatCallback, m.id, i, net.Bytes(net.StatCallback), statCallbackArrive, m.cluster.Node(i), round)
	}
}

// statRound is one stat's callback round: the authority m replies to
// req once every called-back writer has answered.
type statRound struct {
	m           *MDS
	req         *msg.Request
	outstanding int
}

func statCallbackArrive(a, b any) {
	peer := a.(*MDS)
	peer.cpu.SubmitCall(peer.svc(peerService), statCallbackAtPeer, peer, b)
}

// statCallbackAtPeer reports the peer's local maximum, clears it, and
// answers the authority.
func statCallbackAtPeer(a, b any) {
	peer, round := a.(*MDS), b.(*statRound)
	target := round.req.Target
	if size, ok := peer.sizePending[target.ID]; ok {
		peer.raiseSize(target, size)
		delete(peer.sizePending, target.ID)
	}
	peer.clearUnflushed(target)
	peer.fab.Send(net.StatCallback, peer.id, round.m.id, net.Bytes(net.StatCallback), statCallbackAnswered, round, nil)
}

func statCallbackAnswered(a, _ any) {
	round := a.(*statRound)
	if round.outstanding--; round.outstanding == 0 && !round.m.failed {
		round.m.finishReply(round.req)
	}
}
