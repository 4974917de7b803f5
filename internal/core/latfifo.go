package core

import (
	"distiq/internal/isa"
	"distiq/internal/power"
)

// latFIFO places instructions into FIFO queues by their estimated issue
// time instead of their dependences: an instruction goes to a non-full
// queue whose tail is expected to issue at least one cycle earlier,
// preferring the queue whose tail issues latest (leaving the most room for
// younger instructions); failing that, an empty queue; failing that,
// dispatch stalls. Heads are issued exactly as in IssueFIFO. The paper
// uses this organization for FP queues only (integer queues remain
// IssueFIFO).
type latFIFO struct {
	opt Options
	cfg DomainConfig
	fifoRings
	ev power.Events
}

func newLatFIFO(cfg DomainConfig, opt Options) *latFIFO {
	return &latFIFO{
		opt:       opt,
		cfg:       cfg,
		fifoRings: newFIFORings(cfg.Queues, cfg.Entries),
	}
}

func (l *latFIFO) Name() string          { return "LatFIFO" }
func (l *latFIFO) Occupancy() int        { return l.occ }
func (l *latFIFO) Capacity() int         { return l.cfg.Total() }
func (l *latFIFO) Events() *power.Events { return &l.ev }

func (l *latFIFO) Geometry() power.Geometry {
	return power.Geometry{
		Style:       power.StyleFIFO,
		Queues:      l.cfg.Queues,
		Entries:     l.cfg.Entries,
		TagBits:     8,
		PayloadBits: 80,
		FUFanout:    l.opt.fanout(),
	}
}

// Dispatch places in by estimated issue time (in.EstIssue, filled by the
// shared Estimator at dispatch).
func (l *latFIFO) Dispatch(env Env, in *isa.Inst) bool {
	best, bestTail := -1, int64(-1)
	for q := range l.heads {
		h := &l.heads[q]
		t := h.tail
		if t == nil || h.n >= l.entries {
			continue
		}
		if t.EstIssue <= in.EstIssue-1 && t.EstIssue > bestTail {
			best, bestTail = q, t.EstIssue
		}
	}
	if best < 0 {
		if best = l.firstEmpty(); best < 0 {
			return false
		}
	}
	l.push(best, in)
	l.ev.FIFOWrites++
	return true
}

// Issue mirrors issueFIFO: ready heads issue oldest-first.
func (l *latFIFO) Issue(env Env, budget int) int {
	return l.issue(env, budget, &l.ev)
}

func (l *latFIFO) OnComplete(Env, bool) {}

func (l *latFIFO) OnMispredictResolved() {}
