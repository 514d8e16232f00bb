package sim

// ShardGroup runs K engines ("logical processes" in conservative
// parallel DES terms) in lockstep lookahead windows. Within a window
// [cur, end) every shard dispatches its own events independently — in
// parallel mode each on its own goroutine — and may only read shared
// state; cross-shard effects travel through mailboxes (internal/net) and
// deferred mutations (Engine.Defer), both merged deterministically at
// the window barrier. The window width is bounded by the minimum
// cross-shard delivery latency (the lookahead), so a message sent inside
// a window can never be due before the barrier that merges it: no shard
// ever receives an event in its past.
//
// Windows are also cut at the global engine's next event time, so
// cluster-wide serial work (balancer rounds, fault injection, warmup
// snapshots) runs exactly on time, between windows, with every shard
// clock aligned.
type ShardGroup struct {
	shards    []*Engine
	global    *Engine
	lookahead Time
	parallel  bool
	// barrier runs after every window with all clocks at now. It is
	// responsible for draining cross-shard mailboxes, applying deferred
	// mutations (ApplyDeferred), and dispatching global events up to now.
	barrier func(now Time)

	cmd    []chan Time
	done   chan struct{}
	gopIdx []int

	// Windows counts lookahead windows executed.
	Windows uint64
}

// NewShardGroup builds an executor over the shard engines, a global
// engine for barrier-phase events, and a positive lookahead bound.
// parallel selects goroutine-per-shard window execution; with it false
// the same windows run on the calling goroutine in shard order, with
// identical results for a fixed shard count.
func NewShardGroup(shards []*Engine, global *Engine, lookahead Time, parallel bool, barrier func(now Time)) *ShardGroup {
	if len(shards) == 0 {
		panic("sim: shard group needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	for _, s := range shards {
		s.SetDeferring(true)
	}
	return &ShardGroup{
		shards:    shards,
		global:    global,
		lookahead: lookahead,
		parallel:  parallel,
		barrier:   barrier,
		gopIdx:    make([]int, len(shards)),
	}
}

// ExecutedEvents sums events dispatched across the shard and global
// engines.
func (g *ShardGroup) ExecutedEvents() uint64 {
	n := g.global.Executed
	for _, s := range g.shards {
		n += s.Executed
	}
	return n
}

// Run advances all shards to end in lockstep lookahead windows, calling
// the barrier after each. Events scheduled exactly at end run last, in
// shard order, matching RunUntil's closed upper bound. Run may be called
// repeatedly (e.g. a measured run followed by a drain phase).
func (g *ShardGroup) Run(end Time) {
	cur := g.global.Now()
	// Dispatch any global work due immediately (t=0 fault rules, etc.)
	// so the window-sizing loop below always sees a strictly future
	// global event.
	g.barrier(cur)
	g.startWorkers()
	for cur < end {
		w := end
		for _, s := range g.shards {
			if t, ok := s.NextEventTime(); ok && t+g.lookahead < w {
				w = t + g.lookahead
			}
		}
		if t, ok := g.global.NextEventTime(); ok && t < w {
			w = t
		}
		if w <= cur {
			// Defensive: the barrier drained global events <= cur and
			// shard events sit at >= cur, so this cannot happen; never
			// stall if it somehow does.
			w = cur + g.lookahead
		}
		if g.parallel {
			for _, c := range g.cmd {
				c <- w
			}
			for range g.shards {
				<-g.done
			}
		} else {
			for _, s := range g.shards {
				s.RunWindow(w)
			}
		}
		g.Windows++
		cur = w
		g.barrier(cur)
	}
	g.stopWorkers()
	// Closed final step: events at exactly end, sequential in shard
	// order, then one more barrier for their deferred effects.
	for _, s := range g.shards {
		s.RunUntil(end)
	}
	g.barrier(end)
}

// ApplyDeferred applies every shard's deferred-mutation buffer in
// (time, shard, sequence) order. It runs on the barrier goroutine with
// all shard clocks aligned; deferral is suspended for the duration, so
// mutations triggered transitively (e.g. an eviction notification fired
// by a cache insert inside a deferred update) apply inline.
func (g *ShardGroup) ApplyDeferred() {
	for _, s := range g.shards {
		s.SetDeferring(false)
	}
	idx := g.gopIdx
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var bt Time
		for i, s := range g.shards {
			if idx[i] >= len(s.gops) {
				continue
			}
			if t := s.gops[idx[i]].at; best < 0 || t < bt {
				best, bt = i, t
			}
		}
		if best < 0 {
			break
		}
		op := g.shards[best].gops[idx[best]]
		idx[best]++
		op.fn(op.a, op.b)
	}
	for _, s := range g.shards {
		for i := range s.gops {
			s.gops[i] = gop{}
		}
		s.gops = s.gops[:0]
		s.SetDeferring(true)
	}
}

func (g *ShardGroup) startWorkers() {
	if !g.parallel {
		return
	}
	g.done = make(chan struct{}, len(g.shards))
	g.cmd = make([]chan Time, len(g.shards))
	for i := range g.shards {
		g.cmd[i] = make(chan Time, 1)
		go func(e *Engine, cmd chan Time) {
			for w := range cmd {
				e.RunWindow(w)
				g.done <- struct{}{}
			}
		}(g.shards[i], g.cmd[i])
	}
}

func (g *ShardGroup) stopWorkers() {
	if !g.parallel {
		return
	}
	for _, c := range g.cmd {
		close(c)
	}
	g.cmd = nil
}
