package core

import (
	"testing"

	"distiq/internal/isa"
)

func newTestCAM(entries int) *camQueue {
	s, err := New(DomainConfig{Kind: KindCAM, Queues: 1, Entries: entries},
		defaultOpts(isa.IntDomain))
	if err != nil {
		panic(err)
	}
	return s.(*camQueue)
}

func TestCAMOldestFirstIssue(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	for i := uint64(0); i < 4; i++ {
		if !q.Dispatch(env, mkInst(i, isa.IntALU, isa.NoReg, isa.NoReg, int16(i))) {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	n := q.Issue(env, 2)
	if n != 2 || len(env.issued) != 2 {
		t.Fatalf("issued %d, want 2", n)
	}
	if env.issued[0].Seq != 0 || env.issued[1].Seq != 1 {
		t.Fatalf("issue order %d,%d not oldest-first", env.issued[0].Seq, env.issued[1].Seq)
	}
	if q.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", q.Occupancy())
	}
}

func TestCAMSkipsUnready(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	blocked := mkInst(0, isa.IntALU, 5, isa.NoReg, 6)
	readyIn := mkInst(1, isa.IntALU, isa.NoReg, isa.NoReg, 7)
	env.block(false, 5)
	q.Dispatch(env, blocked)
	q.Dispatch(env, readyIn)
	if n := q.Issue(env, 8); n != 1 {
		t.Fatalf("issued %d, want 1", n)
	}
	if env.issued[0].Seq != 1 {
		t.Fatal("issued the blocked instruction")
	}
	// Unblock: the older instruction issues next cycle.
	env.unblock(false, 5)
	env.cycle++
	env.issued = nil
	if n := q.Issue(env, 8); n != 1 || env.issued[0].Seq != 0 {
		t.Fatal("unblocked instruction did not issue")
	}
}

func TestCAMCapacityStalls(t *testing.T) {
	q := newTestCAM(2)
	env := newFakeEnv()
	q.Dispatch(env, mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 1))
	q.Dispatch(env, mkInst(1, isa.IntALU, isa.NoReg, isa.NoReg, 2))
	if q.Dispatch(env, mkInst(2, isa.IntALU, isa.NoReg, isa.NoReg, 3)) {
		t.Fatal("dispatch into full CAM queue succeeded")
	}
	if q.Capacity() != 2 {
		t.Fatalf("capacity = %d", q.Capacity())
	}
}

func TestCAMWakeupCountsUnreadyMatchingDomain(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	// Entry with one unready int operand and one unready FP operand.
	in := mkInst(0, isa.IntALU, 3, 4, 5)
	in.Src2FP = true
	env.block(false, 3)
	env.block(true, 4)
	q.Dispatch(env, in)

	q.OnComplete(env, false) // int result: matches src1 only
	if q.ev.WakeupCAMCells != 1 {
		t.Fatalf("int broadcast cells = %d, want 1", q.ev.WakeupCAMCells)
	}
	q.OnComplete(env, true) // fp result: matches src2 only
	if q.ev.WakeupCAMCells != 2 {
		t.Fatalf("fp broadcast cells = %d, want 2", q.ev.WakeupCAMCells)
	}
	if q.ev.WakeupBroadcasts != 2 {
		t.Fatalf("broadcasts = %d, want 2", q.ev.WakeupBroadcasts)
	}
	// Ready operands cost nothing (Folegnani-González).
	env.cycle = 1
	env.unblock(false, 3)
	env.unblock(true, 4)
	q.OnComplete(env, false)
	if q.ev.WakeupCAMCells != 2 {
		t.Fatal("ready operands consumed wakeup energy")
	}
}

func TestCAMEmptyQueueSelectGated(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	q.Issue(env, 8)
	if q.ev.SelectOps != 0 {
		t.Fatal("selection consumed energy on empty queue")
	}
	q.OnComplete(env, false)
	if q.ev.WakeupBroadcasts != 0 {
		t.Fatal("wakeup consumed energy on empty queue")
	}
}

func TestCAMBudgetRespected(t *testing.T) {
	q := newTestCAM(16)
	env := newFakeEnv()
	for i := uint64(0); i < 10; i++ {
		q.Dispatch(env, mkInst(i, isa.IntALU, isa.NoReg, isa.NoReg, isa.NoReg))
	}
	if n := q.Issue(env, 8); n != 8 {
		t.Fatalf("issued %d, want 8 (width)", n)
	}
	if q.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", q.Occupancy())
	}
}

func TestCAMGeometryBanked(t *testing.T) {
	g := newTestCAM(64).Geometry()
	if g.Banks != 8 {
		t.Fatalf("64-entry queue banks = %d, want 8", g.Banks)
	}
	if newTestCAM(16).Geometry().Banks != 1 {
		t.Fatal("small queue should be unbanked")
	}
}

func TestCAMTryIssueVetoKeepsEntry(t *testing.T) {
	q := newTestCAM(8)
	env := newFakeEnv()
	in := mkInst(0, isa.IntALU, isa.NoReg, isa.NoReg, 1)
	q.Dispatch(env, in)
	env.veto[0] = true
	if n := q.Issue(env, 8); n != 0 {
		t.Fatalf("issued %d with veto", n)
	}
	if q.Occupancy() != 1 {
		t.Fatal("vetoed instruction was removed")
	}
	delete(env.veto, 0)
	env.cycle++
	if n := q.Issue(env, 8); n != 1 {
		t.Fatal("instruction lost after veto")
	}
}

func TestCAMWakeupCountsFollowReadyCycles(t *testing.T) {
	// The broadcast count is kept from cached ready cycles: a tag whose
	// producer has issued stays unready until its ready cycle, and a
	// store's data tag counts until the store leaves the queue.
	q := newTestCAM(8)
	env := newFakeEnv()
	env.block(false, 3)
	env.block(false, 4)
	cons := mkInst(0, isa.IntALU, 3, isa.NoReg, 5)
	st := mkInst(1, isa.Store, isa.NoReg, 4, isa.NoReg)
	q.Dispatch(env, cons)
	q.Dispatch(env, st)

	cells := func() uint64 {
		before := q.ev.WakeupCAMCells
		q.OnComplete(env, false)
		return q.ev.WakeupCAMCells - before
	}
	env.cycle = 1
	if n := cells(); n != 2 {
		t.Fatalf("cycle 1: %d unready tags, want 2", n)
	}
	env.readyAt[env.key(false, 3)] = 4 // producer issued, usable at 4
	env.cycle = 2
	if n := cells(); n != 2 {
		t.Fatalf("cycle 2: %d unready tags, want 2", n)
	}
	// The store issues on its address alone; its data tag leaves with it.
	if n := q.Issue(env, 8); n != 1 || env.issued[0] != st {
		t.Fatal("store did not issue on its address")
	}
	env.cycle = 3
	if n := cells(); n != 1 {
		t.Fatalf("cycle 3: %d unready tags, want 1", n)
	}
	env.cycle = 4
	if n := cells(); n != 0 {
		t.Fatalf("cycle 4: %d unready tags, want 0", n)
	}
	if n := q.Issue(env, 8); n != 1 || env.issued[1] != cons {
		t.Fatal("consumer did not issue in its ready cycle")
	}
}

func TestCAMTagParkedOnProducerInQueue(t *testing.T) {
	// A tag whose producer waits in the same queue is not re-read while
	// the producer waits; the producer's issue gives it its ready cycle,
	// which both selection and the broadcast count follow.
	q := newTestCAM(8)
	env := newFakeEnv()
	env.block(false, 1)
	env.block(false, 7)
	prod := mkInst(0, isa.IntMult, 1, isa.NoReg, 7)
	cons := mkInst(1, isa.IntALU, 7, isa.NoReg, 8)
	q.Dispatch(env, prod)
	q.Dispatch(env, cons)
	reads := env.reads
	for env.cycle = 1; env.cycle < 4; env.cycle++ {
		q.OnComplete(env, false)
		q.Issue(env, 8)
	}
	if env.reads != reads+3 {
		t.Fatalf("%d reads over three cycles, want 3 (producer's tag only)", env.reads-reads)
	}
	if q.ev.WakeupCAMCells != 6 {
		t.Fatalf("cells = %d, want 2 unready tags x 3 broadcasts", q.ev.WakeupCAMCells)
	}
	env.unblock(false, 1) // cycle 4: prod issues, r7 usable at 7
	if n := q.Issue(env, 8); n != 1 || env.issued[0] != prod {
		t.Fatal("producer did not issue")
	}
	for env.cycle = 5; env.cycle < 7; env.cycle++ {
		before := q.ev.WakeupCAMCells
		q.OnComplete(env, false)
		if d := q.ev.WakeupCAMCells - before; d != 1 {
			t.Fatalf("cycle %d: %d unready tags, want 1", env.cycle, d)
		}
		if n := q.Issue(env, 8); n != 0 {
			t.Fatalf("cycle %d: consumer issued early", env.cycle)
		}
	}
	before := q.ev.WakeupCAMCells
	q.OnComplete(env, false)
	if q.ev.WakeupCAMCells != before {
		t.Fatal("ready tag still compared at its ready cycle")
	}
	if n := q.Issue(env, 8); n != 1 || env.issued[1] != cons {
		t.Fatal("woken consumer did not issue in its ready cycle")
	}
}

func TestCAMWheelGrowsForFarReadyCycles(t *testing.T) {
	// Ready cycles beyond the timing wheel's reach grow it; entries
	// already waiting on it keep their cycles.
	q := newTestCAM(8)
	env := newFakeEnv()
	env.readyAt[env.key(false, 3)] = 5
	near := mkInst(0, isa.IntALU, 3, isa.NoReg, 6)
	q.Dispatch(env, near)
	env.readyAt[env.key(false, 4)] = 700
	far := mkInst(1, isa.IntALU, 4, isa.NoReg, 7)
	q.Dispatch(env, far)
	if len(q.wheel) < 700 {
		t.Fatalf("wheel of %d cycles holds a ready cycle 700 ahead", len(q.wheel))
	}
	for env.cycle = 1; env.cycle <= 700; env.cycle++ {
		before := q.ev.WakeupCAMCells
		q.OnComplete(env, false)
		want := uint64(0)
		if env.cycle < 5 {
			want++
		}
		if env.cycle < 700 {
			want++
		}
		if d := q.ev.WakeupCAMCells - before; d != want {
			t.Fatalf("cycle %d: %d unready tags, want %d", env.cycle, d, want)
		}
		n := q.Issue(env, 8)
		switch env.cycle {
		case 5:
			if n != 1 || env.issued[0] != near {
				t.Fatal("near entry did not issue at its ready cycle")
			}
		case 700:
			if n != 1 || env.issued[1] != far {
				t.Fatal("far entry did not issue at its ready cycle")
			}
		default:
			if n != 0 {
				t.Fatalf("cycle %d: issued %d", env.cycle, n)
			}
		}
	}
}
