package workload

import (
	"dynmds/internal/msg"
	"dynmds/internal/namespace"
	"dynmds/internal/sim"
)

// Shift wraps a General generator and implements the Figure 5/6
// workload-evolution scenario: at ShiftTime the client (if selected)
// migrates its region of activity to new portions of the hierarchy all
// served by a single MDS, creating files in a private directory and
// exploring the rest of the new region.
type Shift struct {
	*General
	// ShiftTime is when migrating clients move.
	ShiftTime sim.Time
	// NewRegion lists the subtrees (all owned by one node at shift
	// time) the migrating clients converge on.
	NewRegion []*namespace.Inode
	// Migrate selects whether this client participates in the shift.
	Migrate bool

	myHome    *namespace.Inode
	shifted   bool
	madeDir   bool
	dirName   string
	myDir     *namespace.Inode
	createSeq int
}

// NewShift builds the scenario around a general generator.
func NewShift(g *General, shiftTime sim.Time, newRegion []*namespace.Inode, migrate bool) *Shift {
	return &Shift{General: g, ShiftTime: shiftTime, NewRegion: newRegion, Migrate: migrate}
}

// Next implements Generator.
func (s *Shift) Next(now sim.Time, r *sim.RNG) (Op, bool) {
	if !s.Migrate || now < s.ShiftTime || len(s.NewRegion) == 0 {
		return s.General.Next(now, r)
	}
	if !s.shifted {
		s.shifted = true
		s.myHome = s.NewRegion[s.client%len(s.NewRegion)]
		s.SetRegion(s.myHome)
	}
	// First establish a private directory in the new region.
	if !s.madeDir {
		s.madeDir = true
		s.dirName = s.name("mig", s.client)
		return Op{Op: msg.Mkdir, Target: s.myHome, NewName: s.dirName}, true
	}
	if s.myDir == nil {
		// mkdir still in flight (or failed); hammer the new region with
		// stats meanwhile.
		if d, ok := s.myHome.LookupChild(s.dirName); ok {
			s.myDir = d
		} else {
			return Op{Op: msg.Stat, Target: s.myHome}, true
		}
	}
	// Create-heavy activity in the new region, with reads of recently
	// created files (fresh data is what gets re-read) and exploratory
	// reads across the whole new region (each newly visited subtree
	// must be discovered — the client-ignorance cost Figure 6
	// measures; under dynamic balancing the subtrees also keep moving).
	s.createSeq++
	if s.createSeq%8 == 7 {
		d := descend(s.NewRegion[r.Pick(len(s.NewRegion))], r, 4)
		if f := pickFile(d, r); f != nil {
			return Op{Op: msg.Stat, Target: f}, true
		}
		return Op{Op: msg.Readdir, Target: d}, true
	}
	if s.createSeq%4 == 0 && s.createSeq > 1 {
		j := s.createSeq - 1 - r.Pick(min(s.createSeq-1, 32))
		var buf [24]byte
		if f, ok := s.myDir.LookupChild(string(appendName(buf[:0], "n", j))); ok {
			return Op{Op: msg.Stat, Target: f}, true
		}
		return Op{Op: msg.Stat, Target: s.myDir}, true
	}
	return Op{Op: msg.Create, Target: s.myDir, NewName: s.name("n", s.createSeq)}, true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// The Figure 7 crowd: at FlashTime every client suddenly requests the
// same file and keeps hitting it for flashDuration.
const (
	FlashTime     = 8 * sim.Second
	flashDuration = 2 * sim.Second
)

// FlashCrowd wraps a General generator and implements the Figure 7
// scenario.
type FlashCrowd struct {
	*General
	Target *namespace.Inode

	opened bool
}

// NewFlashCrowd builds the scenario around a general generator.
func NewFlashCrowd(g *General, target *namespace.Inode) *FlashCrowd {
	return &FlashCrowd{General: g, Target: target}
}

// Next implements Generator.
func (f *FlashCrowd) Next(now sim.Time, r *sim.RNG) (Op, bool) {
	if now < FlashTime || now >= FlashTime+flashDuration {
		return f.General.Next(now, r)
	}
	if !f.opened {
		f.opened = true
		return Op{Op: msg.Open, Target: f.Target}, true
	}
	// Sustained interest: stats and re-opens of the same file.
	if r.Float64() < 0.5 {
		return Op{Op: msg.Stat, Target: f.Target}, true
	}
	return Op{Op: msg.Open, Target: f.Target}, true
}

// Scientific models the LLNL-style checkpoint workload: clients belong
// to a job; the job cycles through phases. In an N-to-1 phase all
// clients of the job open/stat one shared file; in an N-to-N phase each
// client creates files in the shared job directory; between bursts
// clients do quiet local work.
type Scientific struct {
	*General
	// Job is the shared project directory.
	Job *namespace.Inode

	seq       int
	writeSize int64
}

// The scientific job's cycle: phases of phaseLength, each bursting for
// its first burstFraction.
const (
	phaseLength   = 4 * sim.Second
	burstFraction = 0.5
)

// NewScientific builds the generator. The General provides the quiet
// local work between bursts.
func NewScientific(g *General, job *namespace.Inode) *Scientific {
	return &Scientific{General: g, Job: job}
}

// Next implements Generator.
func (s *Scientific) Next(now sim.Time, r *sim.RNG) (Op, bool) {
	idx := int(now / phaseLength)
	pos := float64(now%phaseLength) / float64(phaseLength)
	if pos >= burstFraction {
		return s.General.Next(now, r) // quiet part of the phase
	}
	if idx%2 == 0 {
		// N-to-1: everyone hits the same per-phase file of the job —
		// opens, stats, and shared-write size updates (the GPFS-style
		// concurrent-writer pattern, §4.2).
		n := s.Job.NumChildren()
		if n == 0 {
			return s.General.Next(now, r)
		}
		target := s.Job.Child(idx % n)
		switch x := r.Float64(); {
		case x < 0.4:
			return Op{Op: msg.Stat, Target: target}, true
		case x < 0.7:
			s.writeSize += int64(1 + r.Intn(1<<20))
			return Op{Op: msg.Write, Target: target, Size: s.writeSize}, true
		default:
			return Op{Op: msg.Open, Target: target}, true
		}
	}
	// N-to-N: everyone creates its own files in the shared directory.
	s.seq++
	return Op{Op: msg.Create, Target: s.Job, NewName: s.name("ckpt", s.client, idx, s.seq)}, true
}
