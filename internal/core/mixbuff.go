package core

import (
	"math"
	"math/bits"

	"distiq/internal/isa"
	"distiq/internal/power"
)

// Latency codes broadcast to the queue entries, one 2-bit value per chain
// (Figure 5). Lower values win selection; the age identifier breaks ties,
// so the concatenation code‖age selects the oldest instruction of the
// highest-priority chain with a plain minimum circuit.
//
// The paper defines the codes relative to its select-then-issue-next-cycle
// timing: 00 = the chain's last issued instruction finishes next cycle
// (first-time-ready consumers issue just in time), 01 = it already
// finished (a delayed consumer), 11 = two or more cycles remain. Our
// pipeline uses the standard atomic wakeup+select abstraction (issue takes
// effect in the selection cycle), so the same priorities are expressed as:
// codeFirstTime when the chain's result became usable exactly this cycle,
// codeDelayed when it became usable earlier, codeNotReady otherwise. The
// priority order — first-time ready over delayed over not-ready — is
// identical to the paper's.
const (
	codeFirstTime = 0 // paper's 00
	codeDelayed   = 1 // paper's 01
	codeNotReady  = 3 // paper's 11
)

// chainState is one chain of one queue: the absolute cycle the result of
// its last issued instruction becomes usable (the 2-bit code is derived
// from it against the current cycle, so no per-cycle countdown exists),
// the FIFO of its waiting instructions, and allocation bookkeeping. A
// chain is busy while its FIFO holds instructions.
type chainState struct {
	readyAt    int64      // cycle the last issued instruction's result is usable
	head, tail int        // slots of the oldest and youngest waiting instruction, -1 when none
	headReady  readyCache // cached operand ready cycles of the head
	lastSeq    uint64     // youngest instruction dispatched into the chain
}

// code returns the 2-bit compressed latency code of the chain at cycle
// now. With the FlatSelectPriority ablation, every ready chain compresses
// to the same class and selection degenerates to age order.
func (ch *chainState) code(now int64, flat bool) int {
	switch {
	case ch.readyAt > now:
		return codeNotReady
	case flat || ch.readyAt < now:
		return codeDelayed
	default:
		return codeFirstTime
	}
}

// mixChainMapEntry records, per register, the queue/chain whose last
// instruction produces it.
type mixChainMapEntry struct {
	queue, chain int
	seq          uint64
	valid        bool
}

// mixBUFF is the paper's proposed organization: each queue is a small RAM
// buffer holding several dependence chains; a per-queue chain latency
// table paces issue without wakeup, and the selection logic picks one
// instruction per queue per cycle by minimum code‖age.
//
// Chains issue in order (all instructions of a chain share its code, so
// the oldest always wins), so selection only compares chain heads, and
// each queue's busy chains are kept in a bit set. A queue's selection
// changes only when an instruction enters or leaves it or a chain's code
// changes with time, so it is kept until the next of those events. The
// event counts of the whole-table chain reads and writes and of the
// selection inputs follow from occupancy.
type mixBUFF struct {
	opt    Options
	cfg    DomainConfig
	chainN int // chains per queue
	words  int // busy-set words per queue

	chains []chainState // queue q owns chains[q*chainN : (q+1)*chainN]
	busy   []uint64     // queue q owns busy[q*words : (q+1)*words]
	qs     []mixQueue
	// Instruction slots: queue q owns slots[q*Entries : (q+1)*Entries];
	// next links each chain's FIFO and each queue's free list.
	slots    []*isa.Inst
	next     []int
	nonEmpty int // queues holding at least one instruction
	occ      int

	// table is indexed by register file (0 integer, 1 FP) and logical
	// register.
	table [2][isa.NumLogicalRegs]mixChainMapEntry
	ev    power.Events

	candidates []*isa.Inst
}

// mixQueue is one queue's occupancy, free-slot list and kept selection.
type mixQueue struct {
	n    int // instructions held
	free int // head of the free-slot list
	// sel is the chain selection picks (nil for none) at every cycle
	// before selUntil; selUntil is 0 once the queue has changed.
	sel      *chainState
	selUntil int64
}

func newMixBUFF(cfg DomainConfig, opt Options) *mixBUFF {
	chainN := cfg.Chains
	if chainN <= 0 {
		// "Unbounded" chains: an instruction always occupies an entry,
		// so entry count bounds the chains a queue can ever need.
		chainN = cfg.Entries
	}
	words := (chainN + 63) / 64
	m := &mixBUFF{
		opt:        opt,
		cfg:        cfg,
		chainN:     chainN,
		words:      words,
		chains:     make([]chainState, cfg.Queues*chainN),
		busy:       make([]uint64, cfg.Queues*words),
		qs:         make([]mixQueue, cfg.Queues),
		slots:      make([]*isa.Inst, cfg.Total()),
		next:       make([]int, cfg.Total()),
		candidates: make([]*isa.Inst, 0, cfg.Queues),
	}
	for q := range m.qs {
		base := q * cfg.Entries
		m.qs[q].free = base
		for i := 0; i < cfg.Entries; i++ {
			m.next[base+i] = base + i + 1
		}
		m.next[base+cfg.Entries-1] = -1
	}
	for i := range m.chains {
		m.chains[i].head, m.chains[i].tail = -1, -1
	}
	return m
}

func (m *mixBUFF) Name() string          { return "MixBUFF" }
func (m *mixBUFF) Occupancy() int        { return m.occ }
func (m *mixBUFF) Capacity() int         { return m.cfg.Total() }
func (m *mixBUFF) Events() *power.Events { return &m.ev }

func (m *mixBUFF) Geometry() power.Geometry {
	return power.Geometry{
		Style:       power.StyleBuff,
		Queues:      m.cfg.Queues,
		Entries:     m.cfg.Entries,
		Chains:      m.chainN,
		TagBits:     8,
		PayloadBits: 80,
		FUFanout:    m.opt.fanout(),
	}
}

func (m *mixBUFF) chain(q, c int) *chainState { return &m.chains[q*m.chainN+c] }

// Dispatch implements the paper's placement: an instruction joins its
// predecessor's chain only if the predecessor is the last instruction of
// that chain and the queue has room; otherwise the lowest free chain
// identifier across queues is allocated (chain-major order, balancing busy
// chains per queue); otherwise dispatch stalls.
func (m *mixBUFF) Dispatch(env Env, in *isa.Inst) bool {
	m.ev.QRenameReads += uint64(in.NumSources())

	q, c := -1, -1
	if in.Src1 != isa.NoReg {
		q, c = m.appendTarget(in.Src1, in.Src1FP)
	}
	// Stores chain by their address operand only (see issueFIFO.Dispatch).
	if q < 0 && in.Src2 != isa.NoReg && in.Class != isa.Store {
		q, c = m.appendTarget(in.Src2, in.Src2FP)
	}
	if q < 0 {
		q, c = m.allocChain(env)
		if q < 0 {
			return false
		}
	}

	m.enqueue(q, c, in)
	m.ev.BuffWrites++
	if in.HasDest() {
		m.table[domIdx(in.DestFP)][in.Dest] = mixChainMapEntry{
			queue: q, chain: c, seq: in.Seq, valid: true,
		}
		m.ev.QRenameWrites++
	}
	return true
}

// enqueue appends in to chain c of queue q, which must have room.
func (m *mixBUFF) enqueue(q, c int, in *isa.Inst) {
	mq := &m.qs[q]
	s := mq.free
	mq.free = m.next[s]
	m.slots[s], m.next[s] = in, -1

	ch := m.chain(q, c)
	if ch.tail < 0 {
		ch.head, ch.headReady = s, unread
	} else {
		m.next[ch.tail] = s
	}
	ch.tail = s
	ch.lastSeq = in.Seq
	in.QueueID, in.ChainID = q, c
	if mq.n == 0 {
		m.nonEmpty++
	}
	mq.n++
	mq.selUntil = 0
	m.occ++
}

// appendTarget resolves a source register to an appendable (queue, chain):
// the producer must still be the last instruction of a busy chain (a
// freed or reallocated chain has none or another), and the queue must
// have room.
func (m *mixBUFF) appendTarget(reg int16, fp bool) (int, int) {
	e := &m.table[domIdx(fp)][reg]
	if !e.valid {
		return -1, -1
	}
	ch := m.chain(e.queue, e.chain)
	if ch.head < 0 || ch.lastSeq != e.seq {
		return -1, -1
	}
	if m.qs[e.queue].n >= m.cfg.Entries {
		return -1, -1
	}
	return e.queue, e.chain
}

// allocChain returns the lowest free chain identifier in chain-major order
// (chain 0 of queue 0, chain 0 of queue 1, ..., chain 1 of queue 0, ...),
// the paper's busy-chain balancing rule.
func (m *mixBUFF) allocChain(env Env) (int, int) {
	bestQ, bestC := -1, m.chainN
	for q := range m.qs {
		if m.qs[q].n >= m.cfg.Entries {
			continue
		}
		if c := m.lowestFree(q); c < bestC {
			bestQ, bestC = q, c
		}
	}
	if bestQ < 0 {
		return -1, -1
	}
	m.busy[bestQ*m.words+bestC/64] |= 1 << (bestC % 64)
	// A fresh chain's first instruction is "considered for the first
	// time" at the next selection opportunity.
	m.chain(bestQ, bestC).readyAt = env.Cycle() + 1
	return bestQ, bestC
}

// lowestFree returns queue q's lowest free chain, or chainN when all are
// busy.
func (m *mixBUFF) lowestFree(q int) int {
	for w := 0; w < m.words; w++ {
		if free := ^m.busy[q*m.words+w]; free != 0 {
			if c := w*64 + bits.TrailingZeros64(free); c < m.chainN {
				return c
			}
		}
	}
	return m.chainN
}

// Issue selects at most one instruction per queue by minimum code‖age,
// verifies the selected instruction's operands in the ready-bit table and
// issues the survivors oldest-first up to the budget. A selected
// instruction that cannot issue keeps its entry; its chain transitions to
// the delayed code, implementing the paper's first-time priority.
func (m *mixBUFF) Issue(env Env, budget int) int {
	// Every non-empty queue reads and rewrites its whole chain latency
	// table and drives its selection logic over all its entries.
	nq := uint64(m.nonEmpty)
	m.ev.ChainReads += nq
	m.ev.ChainWrites += nq
	m.ev.SelectOps += nq
	m.ev.SelectEntries += uint64(m.occ)

	now := env.Cycle()
	m.candidates = m.candidates[:0]
	for q := range m.qs {
		if m.qs[q].n == 0 {
			continue
		}
		best := m.selected(q, now)
		if best == nil {
			continue
		}
		in := m.slots[best.head]
		m.ev.SelRegWrites++
		// The single selected instruction consults the ready-bit
		// table (the estimation may be wrong for cross-queue or
		// cache-miss dependences).
		m.ev.RegsReadyReads += uint64(in.NumSources())
		if best.headReady.at(env, in) <= now {
			m.candidates = append(m.candidates, in)
		}
	}

	ageSorted(m.candidates)
	issued := 0
	for _, in := range m.candidates {
		if issued >= budget {
			break
		}
		if !env.TryIssue(in) {
			continue
		}
		m.remove(in, now)
		m.ev.BuffReads++
		issued++
	}
	return issued
}

// selected returns the chain queue q's selection picks at cycle now, by
// minimum code‖age over the busy chains' heads, or nil when every chain
// is not ready. The pick is kept until the queue changes or the earliest
// cycle at which a chain's code does: a not-ready chain becomes
// first-time at its ready cycle and delayed one cycle later.
func (m *mixBUFF) selected(q int, now int64) *chainState {
	mq := &m.qs[q]
	if now < mq.selUntil {
		return mq.sel
	}
	var best *chainState
	bestCode, until := codeNotReady, int64(math.MaxInt64)
	for w := 0; w < m.words; w++ {
		for b := m.busy[q*m.words+w]; b != 0; b &= b - 1 {
			ch := m.chain(q, w*64+bits.TrailingZeros64(b))
			if ch.readyAt >= now {
				until = min(until, max(ch.readyAt, now+1))
			}
			code := ch.code(now, m.cfg.FlatSelectPriority)
			if code == codeNotReady {
				continue
			}
			if best == nil || code < bestCode ||
				(code == bestCode && older(m.slots[ch.head], m.slots[best.head])) {
				best, bestCode = ch, code
			}
		}
	}
	mq.sel, mq.selUntil = best, until
	return best
}

// remove deletes an issued instruction, the head of its chain, and
// updates the chain: its ready cycle becomes the instruction's result
// cycle, and the chain is freed once no instructions remain.
func (m *mixBUFF) remove(in *isa.Inst, now int64) {
	q := in.QueueID
	ch := m.chain(q, in.ChainID)
	s := ch.head
	ch.head, ch.headReady = m.next[s], unread
	mq := &m.qs[q]
	m.slots[s], m.next[s] = nil, mq.free
	mq.free = s
	mq.n--
	if mq.n == 0 {
		m.nonEmpty--
	}
	mq.selUntil = 0
	m.occ--

	ch.readyAt = now + int64(latencyOf(in, m.opt.Latencies, m.opt.MemHitLat))
	if ch.head < 0 {
		ch.tail = -1
		m.busy[q*m.words+in.ChainID/64] &^= 1 << (in.ChainID % 64)
	}
}

func (m *mixBUFF) OnComplete(Env, bool) {}

// OnMispredictResolved clears the register-to-chain map table (the paper
// clears the equivalent table on mispredictions; KeepMapOnMispredict
// retains it for the ablation study).
func (m *mixBUFF) OnMispredictResolved() {
	if !m.cfg.KeepMapOnMispredict {
		m.table = [2][isa.NumLogicalRegs]mixChainMapEntry{}
	}
}
