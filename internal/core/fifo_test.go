package core

import (
	"testing"

	"distiq/internal/isa"
)

func newTestFIFO(queues, entries int) *issueFIFO {
	s, err := New(DomainConfig{Kind: KindIssueFIFO, Queues: queues, Entries: entries},
		defaultOpts(isa.IntDomain))
	if err != nil {
		panic(err)
	}
	return s.(*issueFIFO)
}

func TestFIFODependentFollowsProducer(t *testing.T) {
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	prod := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 7)
	cons := mkInst(1, isa.IntALU, 7, isa.NoReg, 8)
	f.Dispatch(env, prod)
	f.Dispatch(env, cons)
	if prod.QueueID != cons.QueueID {
		t.Fatalf("consumer queue %d != producer queue %d", cons.QueueID, prod.QueueID)
	}
	if f.heads[prod.QueueID].n != 2 {
		t.Fatal("chain not in one queue")
	}
}

func TestFIFOIndependentChainsSeparateQueues(t *testing.T) {
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	a := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 1)
	b := mkInst(1, isa.IntALU, isa.NoReg, isa.NoReg, 2)
	f.Dispatch(env, a)
	f.Dispatch(env, b)
	if a.QueueID == b.QueueID {
		t.Fatal("independent instructions share a queue")
	}
}

func TestFIFOSecondOperandPlacement(t *testing.T) {
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	prod := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 7)
	f.Dispatch(env, prod)
	// First operand (reg 9) has no producer; second (reg 7) does.
	cons := mkInst(1, isa.IntALU, 9, 7, 8)
	f.Dispatch(env, cons)
	if cons.QueueID != prod.QueueID {
		t.Fatal("second-operand placement failed")
	}
}

func TestFIFOTailOnlyAppending(t *testing.T) {
	// A producer buried under another instruction is no longer the
	// tail, so a later consumer must open a new queue.
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	prod := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 7)
	mid := mkInst(1, isa.IntALU, 7, isa.NoReg, 9) // buries prod
	cons := mkInst(2, isa.IntALU, 7, isa.NoReg, 10)
	f.Dispatch(env, prod)
	f.Dispatch(env, mid)
	f.Dispatch(env, cons)
	if cons.QueueID == prod.QueueID {
		t.Fatal("appended behind a non-tail producer")
	}
}

func TestFIFOStallWhenFullSingleOperand(t *testing.T) {
	f := newTestFIFO(1, 2)
	env := newFakeEnv()
	f.Dispatch(env, mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 7))
	f.Dispatch(env, mkInst(1, isa.IntALU, 7, isa.NoReg, 7))
	// Queue full; dependent single-operand instruction must stall.
	if f.Dispatch(env, mkInst(2, isa.IntALU, 7, isa.NoReg, 8)) {
		t.Fatal("dispatched into full producer queue")
	}
	if f.Occupancy() != 2 {
		t.Fatal("failed dispatch changed occupancy")
	}
}

func TestFIFOStallNoEmptyQueue(t *testing.T) {
	f := newTestFIFO(2, 2)
	env := newFakeEnv()
	f.Dispatch(env, mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 1))
	f.Dispatch(env, mkInst(1, isa.IntALU, isa.NoReg, isa.NoReg, 2))
	// Two queues occupied; an independent instruction needs an empty one.
	if f.Dispatch(env, mkInst(2, isa.IntALU, isa.NoReg, isa.NoReg, 3)) {
		t.Fatal("dispatched with no empty FIFO")
	}
}

func TestFIFOHeadsOnlyIssue(t *testing.T) {
	f := newTestFIFO(2, 4)
	env := newFakeEnv()
	prod := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 7)
	cons := mkInst(1, isa.IntALU, 7, isa.NoReg, 8)
	env.block(false, 7) // renamed destination: not ready until prod issues
	f.Dispatch(env, prod)
	f.Dispatch(env, cons)
	// Producer has no sources: issues. Consumer is not head until the
	// pop happens, and its operand is usable one cycle later.
	env.cycle = 1
	if n := f.Issue(env, 8); n != 1 {
		t.Fatalf("cycle 1 issued %d, want 1 (head only)", n)
	}
	if env.issued[0] != prod {
		t.Fatal("non-head issued first")
	}
	env.cycle = 2
	if n := f.Issue(env, 8); n != 1 || env.issued[1] != cons {
		t.Fatal("consumer did not issue after becoming head")
	}
}

func TestFIFOIssueOldestHeadsFirst(t *testing.T) {
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	// Three independent chains; budget 2 must pick the two oldest heads.
	for i := uint64(0); i < 3; i++ {
		f.Dispatch(env, mkInst(i, isa.IntALU, isa.NoReg, isa.NoReg, int16(i)))
	}
	if n := f.Issue(env, 2); n != 2 {
		t.Fatalf("issued %d, want 2", n)
	}
	if env.issued[0].Seq != 0 || env.issued[1].Seq != 1 {
		t.Fatal("heads not issued oldest-first")
	}
}

func TestFIFOMispredictClearsTable(t *testing.T) {
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	prod := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 7)
	f.Dispatch(env, prod)
	f.OnMispredictResolved()
	cons := mkInst(1, isa.IntALU, 7, isa.NoReg, 8)
	f.Dispatch(env, cons)
	if cons.QueueID == prod.QueueID {
		t.Fatal("consumer used cleared mapping")
	}
}

func TestFIFOEnergyCounters(t *testing.T) {
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	f.Dispatch(env, mkInst(0, isa.IntALU, 3, 4, 7))
	ev := f.Events()
	if ev.QRenameReads != 2 || ev.QRenameWrites != 1 || ev.FIFOWrites != 1 {
		t.Fatalf("dispatch events wrong: %+v", ev)
	}
	f.Issue(env, 8)
	if ev.RegsReadyReads != 2 || ev.FIFOReads != 1 {
		t.Fatalf("issue events wrong: %+v", ev)
	}
}

func TestFIFOCrossDomainRegistersDistinct(t *testing.T) {
	// Integer register 7 and FP register 7 are different registers; a
	// consumer of FP 7 must not chain behind a producer of int 7.
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	prodInt := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 7) // writes int 7
	f.Dispatch(env, prodInt)
	consFP := mkInst(1, isa.IntALU, 7, isa.NoReg, 8)
	consFP.Src1FP = true // reads FP 7
	f.Dispatch(env, consFP)
	if consFP.QueueID == prodInt.QueueID {
		t.Fatal("FP register matched integer producer")
	}
}

func TestFIFOHeadRepolledUntilProducerIssues(t *testing.T) {
	// The head's operand reads NotYet while its producer (in another
	// domain) has not issued; the cached answer must be re-read every
	// cycle, and the head must issue in exactly the cycle the operand
	// becomes usable.
	f := newTestFIFO(2, 4)
	env := newFakeEnv()
	env.block(true, 7) // FP producer, not in this scheme, not issued
	cons := mkInst(0, isa.IntALU, 7, isa.NoReg, 8)
	cons.Src1FP = true
	f.Dispatch(env, cons)
	for env.cycle = 1; env.cycle <= 3; env.cycle++ {
		if n := f.Issue(env, 8); n != 0 {
			t.Fatalf("cycle %d: issued with the producer not issued", env.cycle)
		}
	}
	// The producer issues at cycle 3 with its result usable at cycle 6.
	env.readyAt[env.key(true, 7)] = 6
	reads := env.reads
	for env.cycle = 4; env.cycle < 6; env.cycle++ {
		if n := f.Issue(env, 8); n != 0 {
			t.Fatalf("cycle %d: issued before the operand is usable", env.cycle)
		}
	}
	if env.reads != reads+1 {
		t.Fatalf("known ready cycle re-read: %d reads over two cycles, want 1", env.reads-reads)
	}
	if n := f.Issue(env, 8); n != 1 || env.issued[0] != cons {
		t.Fatalf("cycle %d: head did not issue when its operand became usable", env.cycle)
	}
}

func TestFIFOHeadParkedOnProducerInScheme(t *testing.T) {
	// A head blocked on a producer held in another queue of the same
	// scheme is not re-read while the producer waits; the producer's
	// issue wakes it, and it issues in the producer's result cycle.
	f := newTestFIFO(4, 4)
	env := newFakeEnv()
	env.block(false, 1)
	env.block(false, 7)
	blocker := mkInst(0, isa.IntALU, 1, isa.NoReg, 2) // waits on an outside producer
	prod := mkInst(1, isa.IntMult, 2, isa.NoReg, 7)   // chains behind blocker
	mid := mkInst(2, isa.IntALU, 7, isa.NoReg, 3)     // buries prod
	cons := mkInst(3, isa.IntALU, 9, 7, 8)            // opens a queue
	for _, in := range []*isa.Inst{blocker, prod, mid, cons} {
		if !f.Dispatch(env, in) {
			t.Fatalf("dispatch %d stalled", in.Seq)
		}
	}
	if cons.QueueID == prod.QueueID {
		t.Fatal("consumer chained behind a buried producer")
	}
	env.cycle = 1
	f.Issue(env, 8) // reads both heads once; cons parks on prod
	reads := env.reads
	for env.cycle = 2; env.cycle < 5; env.cycle++ {
		f.Issue(env, 8)
	}
	if env.reads != reads+3 {
		t.Fatalf("%d reads over three cycles, want 3 (blocker only)", env.reads-reads)
	}
	env.unblock(false, 1) // blocker's producer result usable at 5
	f.Issue(env, 8)       // cycle 5: blocker issues, r2 usable at 6
	env.cycle = 6
	f.Issue(env, 8) // prod issues (latency 3), r7 usable at 9
	if len(env.issued) != 2 || env.issued[1] != prod {
		t.Fatal("producer did not issue at its operand's ready cycle")
	}
	for env.cycle = 7; env.cycle < 9; env.cycle++ {
		if n := f.Issue(env, 8); n != 0 {
			t.Fatalf("cycle %d: consumer issued before its operand is usable", env.cycle)
		}
	}
	if n := f.Issue(env, 8); n != 2 || env.issued[2] != mid || env.issued[3] != cons {
		t.Fatal("woken head did not issue in its operand's ready cycle")
	}
}
