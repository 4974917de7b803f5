package core

import (
	"sort"

	"distiq/internal/isa"
	"distiq/internal/power"
)

// camEntry is one slot of the CAM queue: the instruction and the cached
// ready cycle of each source tag (0 when absent, NotYet while the
// producer has not issued).
type camEntry struct {
	in  *isa.Inst
	ord uint64 // dispatch order within the queue
	at  [2]int64
	// parked marks a tag whose producer waits in this queue: the tag is
	// on the producer's wakeup list, linked through tagNext, and is
	// resolved when the producer issues instead of being re-read.
	parked  [2]bool
	tagNext [2]int
	wakeup  int  // head of the list of tags waiting on this entry's result
	next    int  // link in the wheel list of its ready cycle
	wpos    int  // index in camQueue.waiting, -1 when no tag is re-read
	sched   bool // issue operands known: on the wheel or in the ready list
}

// issueAt returns the cycle the entry's issue operands are all usable,
// NotYet while one is unknown.
func (e *camEntry) issueAt() int64 {
	var at int64
	for k := range e.at {
		if _, _, gates := IssueOperand(e.in, k); gates {
			at = max(at, e.at[k])
		}
	}
	return at
}

// polled reports whether tag k is unknown and not on a wakeup list.
func (e *camEntry) polled(k int) bool { return e.at[k] == NotYet && !e.parked[k] }

// camQueue is the conventional out-of-order issue queue: a CAM array holds
// operand tags that are matched against every result broadcast (wakeup),
// and a selection tree picks the oldest ready instructions each cycle. Per
// the paper's baseline, the queue is multi-banked and spends wakeup energy
// only on unready operands (the Folegnani-González optimization), and the
// selection logic consumes nothing when the queue is empty.
//
// The model works from cached tag ready cycles. A tag whose producer
// waits in the same queue sits on that producer's wakeup list and learns
// its ready cycle when the producer issues; a tag whose producer is
// elsewhere (the other domain's queue, or PreSched's second level) is
// re-read each cycle until the producer has issued. An entry whose issue
// operands are known waits on a timing wheel until its ready cycle and
// then joins the ready list, from which selection picks. A broadcast
// compares against every unready tag of its register file; that count is
// kept per file as the tags whose producer has not issued plus those
// whose known ready cycle lies in the future.
type camQueue struct {
	opt Options
	cfg DomainConfig
	ev  power.Events

	ents       []camEntry
	free       []int // free slots
	ready      []int // slots whose issue operands are usable, in dispatch order
	waiting    []int // slots with a tag re-read each cycle
	occ        int
	dispatched uint64      // instructions ever dispatched
	producer   producerMap // slots of the unissued producers in this queue

	unknown [2]int // tags per register file with an unissued producer
	future  [2]int // tags per register file with a ready cycle after seen
	// wheel holds one bucket per cycle after seen, indexed by the cycle
	// modulo its length (a power of two). It doubles when a ready cycle
	// lies beyond it; a result is usable within the pipeline's
	// completion horizon of its producer's issue, so it stops growing
	// after the first long memory accesses.
	wheel  []wheelBucket
	seen   int64       // cycle the state was last brought up to date
	issued []*isa.Inst // instructions issued by the last Issue call
}

// wheelBucket is what becomes usable in one cycle: a list of slots whose
// issue operands all do, and the number of tags per register file.
type wheelBucket struct {
	slots int
	due   [2]int
}

func newCAM(cfg DomainConfig, opt Options) *camQueue {
	n := cfg.Total()
	q := &camQueue{
		opt:     opt,
		cfg:     cfg,
		ents:    make([]camEntry, n),
		free:    make([]int, n),
		ready:   make([]int, 0, n),
		waiting: make([]int, 0, n),
		issued:  make([]*isa.Inst, 0, n),
		wheel:   newWheel(64),
		seen:    -1,
	}
	for i := range q.free {
		q.free[i] = n - 1 - i
	}
	return q
}

func newWheel(n int) []wheelBucket {
	w := make([]wheelBucket, n)
	for i := range w {
		w[i].slots = -1
	}
	return w
}

// bucket returns the wheel bucket of cycle at, which lies after now, the
// cycle the wheel was last advanced to.
func (q *camQueue) bucket(at, now int64) *wheelBucket {
	for at-now >= int64(len(q.wheel)) {
		n := int64(len(q.wheel))
		w := newWheel(2 * len(q.wheel))
		for t := now + 1; t < now+n; t++ {
			w[t&(2*n-1)] = q.wheel[t&(n-1)]
		}
		q.wheel = w
	}
	return &q.wheel[at&int64(len(q.wheel)-1)]
}

func (q *camQueue) Name() string          { return "CAM" }
func (q *camQueue) Occupancy() int        { return q.occ }
func (q *camQueue) Capacity() int         { return q.cfg.Total() }
func (q *camQueue) Events() *power.Events { return &q.ev }

func (q *camQueue) Geometry() power.Geometry {
	banks := 1
	if q.cfg.Total() >= 64 {
		banks = 8 // the paper's 8 banks x 8 entries
	}
	return power.Geometry{
		Style:       power.StyleCAM,
		Queues:      1,
		Entries:     q.cfg.Total(),
		TagBits:     8, // log2(160) rounded up
		PayloadBits: 80,
		Banks:       banks,
		FUFanout:    q.opt.fanout(),
	}
}

func (q *camQueue) Dispatch(env Env, in *isa.Inst) bool {
	if q.occ >= len(q.ents) {
		return false
	}
	now := env.Cycle()
	q.refresh(env, now)
	s := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	e := &q.ents[s]
	*e = camEntry{in: in, ord: q.dispatched, wakeup: -1, wpos: -1}
	q.dispatched++
	for k := range e.at {
		fp, preg, gates := IssueOperand(in, k)
		if preg == isa.NoReg {
			continue
		}
		e.at[k] = env.OperandReadyAt(fp, preg)
		q.countTag(fp, e.at[k], now, 1)
		// A tag that does not gate issue (a store's data) may leave
		// with its entry before its producer issues; it is always
		// re-read instead.
		if e.at[k] != NotYet || !gates {
			continue
		}
		if p := q.producer.cell(fp, preg); p != nil && *p > 0 {
			prod := &q.ents[*p-1]
			e.parked[k], e.tagNext[k] = true, prod.wakeup
			prod.wakeup = 2*s + k
		}
	}
	if e.polled(0) || e.polled(1) {
		e.wpos = len(q.waiting)
		q.waiting = append(q.waiting, s)
	}
	if p := q.producer.cell(in.DestFP, in.PDest); p != nil {
		*p = int32(s + 1)
	}
	q.schedule(s, now)
	in.QueueID = 0
	q.occ++
	q.ev.IQWrites++
	return true
}

// countTag adds d to the unready-tag count a tag of file fp with ready
// cycle at contributes at cycle now.
func (q *camQueue) countTag(fp bool, at, now int64, d int) {
	f := domIdx(fp)
	switch {
	case at == NotYet:
		q.unknown[f] += d
	case at > now:
		q.future[f] += d
		q.bucket(at, now).due[f] += d
	}
}

// resolve records that tag k of slot s, unknown until now, becomes usable
// at cycle at.
func (q *camQueue) resolve(s, k int, at, now int64) {
	e := &q.ents[s]
	fp, _ := source(e.in, k)
	q.countTag(fp, NotYet, now, -1)
	e.at[k], e.parked[k] = at, false
	q.countTag(fp, at, now, 1)
	q.schedule(s, now)
}

// schedule places slot s, once its issue operands are known, in the ready
// list or on the wheel at its ready cycle.
func (q *camQueue) schedule(s int, now int64) {
	e := &q.ents[s]
	at := e.issueAt()
	if e.sched || at == NotYet {
		return
	}
	e.sched = true
	if at <= now {
		q.makeReady(s)
		return
	}
	b := q.bucket(at, now)
	e.next, b.slots = b.slots, s
}

// makeReady inserts slot s into the ready list in dispatch order, which
// is age order except in PreSched's first level (filled in promotion
// order).
func (q *camQueue) makeReady(s int) {
	ord := q.ents[s].ord
	i := sort.Search(len(q.ready), func(j int) bool { return q.ents[q.ready[j]].ord > ord })
	q.ready = append(q.ready, 0)
	copy(q.ready[i+1:], q.ready[i:])
	q.ready[i] = s
}

// refresh brings the queue up to cycle now, at most once per cycle: tags
// and entries whose ready cycle has arrived leave the future count and
// the wheel, and tags whose producer is outside the queue are read again.
func (q *camQueue) refresh(env Env, now int64) {
	if now == q.seen {
		return
	}
	if q.occ == 0 {
		q.seen = now
		return
	}
	for t := q.seen + 1; t <= now && t < q.seen+int64(len(q.wheel)); t++ {
		b := &q.wheel[t&int64(len(q.wheel)-1)]
		for f, d := range b.due {
			q.future[f] -= d
		}
		for s := b.slots; s >= 0; s = q.ents[s].next {
			q.makeReady(s)
		}
		*b = wheelBucket{slots: -1}
	}
	q.seen = now

	for i := 0; i < len(q.waiting); {
		s := q.waiting[i]
		e := &q.ents[s]
		for k := range e.at {
			if !e.polled(k) {
				continue
			}
			if at := env.OperandReadyAt(source(e.in, k)); at != NotYet {
				q.resolve(s, k, at, now)
			}
		}
		if e.polled(0) || e.polled(1) {
			i++
			continue
		}
		q.unwait(s)
	}
}

// unwait removes slot s from the waiting list.
func (q *camQueue) unwait(s int) {
	i := q.ents[s].wpos
	last := q.waiting[len(q.waiting)-1]
	q.waiting[i] = last
	q.ents[last].wpos = i
	q.waiting = q.waiting[:len(q.waiting)-1]
	q.ents[s].wpos = -1
}

// Issue selects up to budget ready instructions, oldest first (in dispatch
// order).
func (q *camQueue) Issue(env Env, budget int) int {
	q.issued = q.issued[:0]
	if q.occ == 0 {
		return 0 // empty queue: selection logic gated off
	}
	now := env.Cycle()
	q.refresh(env, now)
	q.ev.SelectOps++
	q.ev.SelectEntries += uint64(q.occ)

	kept := q.ready[:0]
	for i, s := range q.ready {
		if len(q.issued) >= budget {
			kept = append(kept, q.ready[i:]...)
			break
		}
		if !env.TryIssue(q.ents[s].in) {
			kept = append(kept, s)
			continue
		}
		q.release(env, s, now)
	}
	q.ready = kept
	return len(q.issued)
}

// release frees the slot of an instruction issued at cycle now and wakes
// the tags waiting on its result, whose ready cycle is now known and lies
// after now (so no woken entry joins the ready list this cycle). The
// issued entry's issue operands were usable; a store's data tag may still
// be unready.
func (q *camQueue) release(env Env, s int, now int64) {
	e := &q.ents[s]
	in := e.in
	q.issued = append(q.issued, in)
	for k, at := range e.at {
		if fp, preg := source(in, k); preg != isa.NoReg {
			q.countTag(fp, at, now, -1)
		}
	}
	if e.wpos >= 0 {
		q.unwait(s)
	}
	if p := q.producer.cell(in.DestFP, in.PDest); p != nil {
		*p = 0
	}
	if e.wakeup >= 0 {
		at := env.OperandReadyAt(in.DestFP, in.PDest)
		for t := e.wakeup; t >= 0; {
			c, k := t/2, t%2
			t = q.ents[c].tagNext[k]
			q.resolve(c, k, at, now)
		}
	}
	e.in = nil
	q.free = append(q.free, s)
	q.occ--
	q.ev.IQReads++
}

// OnComplete models a result-tag broadcast: the tag lines are driven and
// every currently-unready operand of the matching register file compares.
func (q *camQueue) OnComplete(env Env, destFP bool) {
	if q.occ == 0 {
		return
	}
	q.refresh(env, env.Cycle())
	q.ev.WakeupBroadcasts++
	f := domIdx(destFP)
	q.ev.WakeupCAMCells += uint64(q.unknown[f] + q.future[f])
}

func (q *camQueue) OnMispredictResolved() {}
