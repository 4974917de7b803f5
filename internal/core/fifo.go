package core

import (
	"math"

	"distiq/internal/isa"
	"distiq/internal/power"
)

// fifoRings is the storage and head-issue logic IssueFIFO and LatFIFO
// share: one fixed ring of slots per queue, of which only the head is
// ever considered for issue.
//
// Each head's operand ready cycles are read when the instruction becomes
// head and kept once known. A head blocked on a producer that waits in
// these rings is parked on that producer's wakeup list and read again
// only after the producer issues; a head blocked on a producer elsewhere
// (the other domain) is read again every cycle. So a cycle's head check
// compares cached cycles and touches register state only for heads whose
// producer may just have issued.
type fifoRings struct {
	entries int
	slots   []*isa.Inst // queue q owns slots[q*entries : (q+1)*entries]
	heads   []fifoHead
	// headAt is each queue's head ready cycle: known, NotYet (read it
	// again), or idle (empty queue, or head parked).
	headAt []int64
	occ    int
	// headSrcs is the register-source count summed over the current
	// heads: the ready-bit table reads one issue check performs.
	headSrcs uint64

	// producer holds the slots of the unissued producers in these
	// rings; wakeup heads each slot's list of queues whose head is
	// parked on its result, linked through fifoHead.nextParked.
	producer producerMap
	wakeup   []int

	cands []*isa.Inst // scratch for age-ordering ready heads
}

// idle marks a queue head that is never ready and needs no read.
const idle = math.MaxInt64

// fifoHead is one queue's ring position and cached head.
type fifoHead struct {
	in         *isa.Inst // head instruction, nil when the queue is empty
	tail       *isa.Inst // youngest instruction, nil when the queue is empty
	ready      readyCache
	first      int // slot offset of the head
	n          int // instructions held
	nextParked int // next queue parked on the same producer, -1 at the end
}

func newFIFORings(queues, entries int) fifoRings {
	r := fifoRings{
		entries: entries,
		slots:   make([]*isa.Inst, queues*entries),
		heads:   make([]fifoHead, queues),
		headAt:  make([]int64, queues),
		wakeup:  make([]int, queues*entries),
		cands:   make([]*isa.Inst, 0, queues),
	}
	for q := range r.headAt {
		r.headAt[q] = idle
	}
	for s := range r.wakeup {
		r.wakeup[s] = -1
	}
	return r
}

func (r *fifoRings) full(q int) bool { return r.heads[q].n >= r.entries }

// slot returns the index in slots of queue q's i-th instruction, head
// first.
func (r *fifoRings) slot(q, i int) int {
	i += r.heads[q].first
	if i >= r.entries {
		i -= r.entries
	}
	return q*r.entries + i
}

// firstEmpty returns the lowest-numbered empty queue, or -1.
func (r *fifoRings) firstEmpty() int {
	for q := range r.heads {
		if r.heads[q].n == 0 {
			return q
		}
	}
	return -1
}

// push appends in to queue q, which must have room.
func (r *fifoRings) push(q int, in *isa.Inst) {
	in.QueueID = q
	h := &r.heads[q]
	s := r.slot(q, h.n)
	r.slots[s], h.tail = in, in
	if p := r.producer.cell(in.DestFP, in.PDest); p != nil {
		*p = int32(s + 1)
	}
	h.n++
	r.occ++
	if h.n == 1 {
		r.newHead(q, in)
	}
}

// pop removes the issued head of queue q and wakes the heads parked on
// its result.
func (r *fifoRings) pop(q int) {
	h := &r.heads[q]
	in := h.in
	s := r.slot(q, 0)
	if p := r.producer.cell(in.DestFP, in.PDest); p != nil {
		*p = 0
	}
	for w := r.wakeup[s]; w >= 0; w = r.heads[w].nextParked {
		r.headAt[w] = NotYet
	}
	r.wakeup[s] = -1
	r.headSrcs -= uint64(in.NumSources())
	r.slots[s] = nil
	if h.first++; h.first == r.entries {
		h.first = 0
	}
	h.n--
	r.occ--
	h.in, r.headAt[q] = nil, idle
	if h.n > 0 {
		r.newHead(q, r.slots[r.slot(q, 0)])
	} else {
		h.tail = nil
	}
}

func (r *fifoRings) newHead(q int, in *isa.Inst) {
	r.heads[q].in, r.heads[q].ready = in, unread
	r.headAt[q] = NotYet
	r.headSrcs += uint64(in.NumSources())
}

// read reads queue q's head operands again, parking the head when the
// producer it is blocked on waits in these rings, and returns its cached
// ready cycle.
func (r *fifoRings) read(env Env, q int) int64 {
	h := &r.heads[q]
	at := h.ready.at(env, h.in)
	if at == NotYet {
		k := 0
		if h.ready[0] != NotYet {
			k = 1
		}
		fp, preg := source(h.in, k)
		if p := r.producer.cell(fp, preg); p != nil && *p > 0 {
			s := int(*p - 1)
			h.nextParked, r.wakeup[s] = r.wakeup[s], q
			at = idle
		}
	}
	r.headAt[q] = at
	return at
}

// issue checks every queue head against the ready-bit table and issues
// ready heads oldest-first up to the budget.
func (r *fifoRings) issue(env Env, budget int, ev *power.Events) int {
	ev.RegsReadyReads += r.headSrcs
	now := env.Cycle()
	r.cands = r.cands[:0]
	for q, at := range r.headAt {
		if at == NotYet {
			at = r.read(env, q)
		}
		if at <= now {
			r.cands = append(r.cands, r.heads[q].in)
		}
	}
	ageSorted(r.cands)

	issued := 0
	for _, in := range r.cands {
		if issued >= budget {
			break
		}
		if !env.TryIssue(in) {
			continue
		}
		r.pop(in.QueueID)
		ev.FIFOReads++
		issued++
	}
	return issued
}

// mapEntry records which queue's tail produces a register.
type mapEntry struct {
	queue int
	seq   uint64 // sequence number of the producing instruction
	valid bool
}

// issueFIFO is Palacharla's dependence-based FIFO organization. A small
// table maps each register to the queue whose tail instruction produces
// it; dispatched instructions are appended behind their producers, so each
// FIFO holds a dependence chain and only queue heads are considered for
// issue, eliminating the wakeup CAM.
type issueFIFO struct {
	opt Options
	cfg DomainConfig
	fifoRings
	// table is indexed by register file (0 integer, 1 FP) and logical
	// register.
	table [2][isa.NumLogicalRegs]mapEntry
	ev    power.Events
}

func newIssueFIFO(cfg DomainConfig, opt Options) *issueFIFO {
	return &issueFIFO{
		opt:       opt,
		cfg:       cfg,
		fifoRings: newFIFORings(cfg.Queues, cfg.Entries),
	}
}

func (f *issueFIFO) Name() string          { return "IssueFIFO" }
func (f *issueFIFO) Occupancy() int        { return f.occ }
func (f *issueFIFO) Capacity() int         { return f.cfg.Total() }
func (f *issueFIFO) Events() *power.Events { return &f.ev }

func (f *issueFIFO) Geometry() power.Geometry {
	return power.Geometry{
		Style:       power.StyleFIFO,
		Queues:      f.cfg.Queues,
		Entries:     f.cfg.Entries,
		TagBits:     8,
		PayloadBits: 80,
		FUFanout:    f.opt.fanout(),
	}
}

// producerQueue returns the queue whose tail still produces register reg
// of file fp, or -1 (entries self-invalidate when the producer issues or
// is buried).
func (f *issueFIFO) producerQueue(reg int16, fp bool) int {
	m := &f.table[domIdx(fp)][reg]
	if !m.valid {
		return -1
	}
	if t := f.heads[m.queue].tail; t == nil || t.Seq != m.seq {
		return -1
	}
	return m.queue
}

// Dispatch implements the paper's reading of Palacharla's heuristics:
//
//  1. if a queue's tail produces the first operand, append there; if that
//     queue is full and this is the only register operand, stall;
//  2. else if a queue's tail produces the second operand, append there;
//     if full, stall;
//  3. otherwise use an empty queue; if none exists, stall.
func (f *issueFIFO) Dispatch(env Env, in *isa.Inst) bool {
	f.ev.QRenameReads += uint64(in.NumSources())

	// A store is placed by its address operand only: its issue-queue
	// entry is the address computation (the data is consumed at
	// commit), so chaining it behind the data producer would bury the
	// address and stall every younger load on the AllStoreAddr rule.
	chainSrc2 := in.Src2 != isa.NoReg && in.Class != isa.Store

	target := -1
	if in.Src1 != isa.NoReg {
		if q := f.producerQueue(in.Src1, in.Src1FP); q >= 0 {
			if !f.full(q) {
				target = q
			} else if !chainSrc2 {
				return false // full, single-operand: stall
			}
		}
	}
	if target < 0 && chainSrc2 {
		if q := f.producerQueue(in.Src2, in.Src2FP); q >= 0 {
			if f.full(q) {
				return false // full second-operand queue: stall
			}
			target = q
		}
	}
	if target < 0 {
		if target = f.firstEmpty(); target < 0 {
			return false // no empty FIFO: stall
		}
	}

	f.push(target, in)
	f.ev.FIFOWrites++
	if in.HasDest() {
		f.table[domIdx(in.DestFP)][in.Dest] = mapEntry{queue: target, seq: in.Seq, valid: true}
		f.ev.QRenameWrites++
	}
	return true
}

// Issue checks every queue head against the ready-bit table and issues
// ready heads oldest-first up to the budget.
func (f *issueFIFO) Issue(env Env, budget int) int {
	return f.issue(env, budget, &f.ev)
}

func (f *issueFIFO) OnComplete(Env, bool) {}

// OnMispredictResolved clears the queue-map table, the cheap recovery the
// paper found to cost no measurable performance (the KeepMapOnMispredict
// ablation retains it instead).
func (f *issueFIFO) OnMispredictResolved() {
	if !f.cfg.KeepMapOnMispredict {
		f.table = [2][isa.NumLogicalRegs]mapEntry{}
	}
}
