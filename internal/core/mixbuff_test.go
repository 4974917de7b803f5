package core

import (
	"testing"

	"distiq/internal/isa"
)

func newTestMixBUFF(queues, entries, chains int) *mixBUFF {
	s, err := New(DomainConfig{Kind: KindMixBUFF, Queues: queues, Entries: entries, Chains: chains},
		defaultOpts(isa.FPDomain))
	if err != nil {
		panic(err)
	}
	return s.(*mixBUFF)
}

func fpInst(seq uint64, src1, src2, dest int16) *isa.Inst {
	return mkInst(seq, isa.FPAdd, src1, src2, dest)
}

// place puts in at the tail of chain c of queue q, marking the chain busy,
// bypassing the dispatch heuristics.
func place(m *mixBUFF, q, c int, in *isa.Inst) {
	m.busy[q*m.words+c/64] |= 1 << (c % 64)
	m.enqueue(q, c, in)
}

func (m *mixBUFF) chainBusy(q, c int) bool {
	return m.busy[q*m.words+c/64]&(1<<(c%64)) != 0
}

func TestMixBUFFDependentJoinsChain(t *testing.T) {
	m := newTestMixBUFF(2, 8, 4)
	env := newFakeEnv()
	prod := fpInst(0, isa.NoReg, isa.NoReg, 7)
	cons := fpInst(1, 7, isa.NoReg, 8)
	m.Dispatch(env, prod)
	m.Dispatch(env, cons)
	if prod.QueueID != cons.QueueID || prod.ChainID != cons.ChainID {
		t.Fatalf("consumer (%d,%d) not in producer chain (%d,%d)",
			cons.QueueID, cons.ChainID, prod.QueueID, prod.ChainID)
	}
}

func TestMixBUFFChainMajorAllocation(t *testing.T) {
	// Independent instructions must allocate chain 0 of queue 0, chain 0
	// of queue 1, chain 1 of queue 0, chain 1 of queue 1, ... (paper's
	// balancing order).
	m := newTestMixBUFF(2, 8, 3)
	env := newFakeEnv()
	want := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	for i, w := range want {
		in := fpInst(uint64(i), isa.NoReg, isa.NoReg, int16(i))
		if !m.Dispatch(env, in) {
			t.Fatalf("dispatch %d stalled", i)
		}
		if in.QueueID != w[0] || in.ChainID != w[1] {
			t.Fatalf("inst %d placed (%d,%d), want (%d,%d)",
				i, in.QueueID, in.ChainID, w[0], w[1])
		}
	}
	// All chains busy: the next independent instruction stalls.
	if m.Dispatch(env, fpInst(99, isa.NoReg, isa.NoReg, 30)) {
		t.Fatal("dispatch succeeded with all chains busy")
	}
}

func TestMixBUFFMultipleChainsShareQueue(t *testing.T) {
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	a := fpInst(0, isa.NoReg, isa.NoReg, 1)
	b := fpInst(1, isa.NoReg, isa.NoReg, 2)
	m.Dispatch(env, a)
	m.Dispatch(env, b)
	if a.QueueID != 0 || b.QueueID != 0 {
		t.Fatal("single queue not used")
	}
	if a.ChainID == b.ChainID {
		t.Fatal("independent chains merged")
	}
}

func TestMixBUFFOneIssuePerQueuePerCycle(t *testing.T) {
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	m.Dispatch(env, fpInst(0, isa.NoReg, isa.NoReg, 1))
	m.Dispatch(env, fpInst(1, isa.NoReg, isa.NoReg, 2))
	env.cycle = 1
	if n := m.Issue(env, 8); n != 1 {
		t.Fatalf("queue issued %d in one cycle, want 1", n)
	}
	env.cycle = 2
	if n := m.Issue(env, 8); n != 1 {
		t.Fatalf("second cycle issued %d, want 1", n)
	}
}

func TestMixBUFFChainPacingByLatency(t *testing.T) {
	// Two dependent FPAdds (latency 2): the consumer must issue exactly
	// two cycles after the producer.
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	prod := fpInst(0, isa.NoReg, isa.NoReg, 7)
	cons := fpInst(1, 7, isa.NoReg, 8)
	env.block(true, 7) // renamed destinations: not ready until issue
	env.block(true, 8)
	m.Dispatch(env, prod)
	m.Dispatch(env, cons)

	env.cycle = 1
	if n := m.Issue(env, 8); n != 1 || env.issued[0] != prod {
		t.Fatal("producer did not issue first")
	}
	// Result usable at cycle 3 (issue 1 + latency 2).
	env.cycle = 2
	if n := m.Issue(env, 8); n != 0 {
		t.Fatal("consumer issued before the chain's result cycle")
	}
	env.cycle = 3
	if n := m.Issue(env, 8); n != 1 || env.issued[1] != cons {
		t.Fatal("consumer did not issue when chain became ready")
	}
}

func TestSelectPaperExample(t *testing.T) {
	// Reproduces Figure 5: one queue holding six instructions across
	// four chains. Chain ready cycles: chain 0 finished (delayed code
	// 01), chains 1 and 2 finishing now (first-time code 00), chain 3
	// four cycles away (code 11). Ages follow the figure:
	// i..i+5 = 5,6,7,8,9,10 with entries
	//   i   -> chain 0, i+1 -> chain 1, i+2 -> chain 0,
	//   i+3 -> chain 2, i+4 -> chain 2, i+5 -> chain 3.
	// Expected selection: i+1 (oldest among the chains with code 00).
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	env.cycle = 100

	mkEntry := func(seq uint64, age uint32, chain int) *isa.Inst {
		in := fpInst(seq, isa.NoReg, isa.NoReg, isa.NoReg)
		in.AgeID = age
		place(m, 0, chain, in)
		return in
	}
	mkEntry(0, 5, 0)            // i
	i1 := mkEntry(1, 6, 1)      // i+1
	mkEntry(2, 7, 0)            // i+2
	mkEntry(3, 8, 2)            // i+3
	mkEntry(4, 9, 2)            // i+4
	mkEntry(5, 10, 3)           // i+5
	m.chain(0, 0).readyAt = 90  // finished a while ago: delayed
	m.chain(0, 1).readyAt = 100 // first time this cycle
	m.chain(0, 2).readyAt = 100
	m.chain(0, 3).readyAt = 104 // not ready

	if n := m.Issue(env, 8); n != 1 {
		t.Fatalf("issued %d, want 1", n)
	}
	if env.issued[0] != i1 {
		t.Fatalf("selected seq %d, want i+1", env.issued[0].Seq)
	}
}

func TestMixBUFFChainCodeFollowsReadyCycle(t *testing.T) {
	// A chain whose instruction of latency L issued at cycle t reads
	// not-ready through t+L-1, first-time at t+L and delayed after.
	for _, tc := range []struct {
		class isa.Class
		lat   int64
	}{{isa.FPAdd, 2}, {isa.FPMult, 4}, {isa.FPDiv, 12}} {
		m := newTestMixBUFF(1, 8, 4)
		env := newFakeEnv()
		a := mkInst(0, tc.class, isa.NoReg, isa.NoReg, 1)
		b := mkInst(1, tc.class, 1, isa.NoReg, 2) // keeps the chain busy
		m.Dispatch(env, a)
		m.Dispatch(env, b)
		const t0 = 7
		env.cycle = t0
		if n := m.Issue(env, 8); n != 1 || env.issued[0] != a {
			t.Fatalf("%v: producer did not issue", tc.class)
		}
		ch := m.chain(a.QueueID, a.ChainID)
		for now := int64(t0); now < t0+tc.lat; now++ {
			if c := ch.code(now, false); c != codeNotReady {
				t.Fatalf("%v: cycle t+%d code %d, want not-ready", tc.class, now-t0, c)
			}
		}
		if c := ch.code(t0+tc.lat, false); c != codeFirstTime {
			t.Fatalf("%v: cycle t+L code %d, want first-time", tc.class, c)
		}
		for now := t0 + tc.lat + 1; now < t0+tc.lat+4; now++ {
			if c := ch.code(now, false); c != codeDelayed {
				t.Fatalf("%v: cycle t+%d code %d, want delayed", tc.class, now-t0, c)
			}
			if c := ch.code(now, true); c != codeDelayed {
				t.Fatalf("%v: flat priority code %d, want delayed", tc.class, c)
			}
		}
		if c := ch.code(t0+tc.lat, true); c != codeDelayed {
			t.Fatalf("%v: flat priority first-time code %d, want delayed", tc.class, c)
		}
	}
}

func TestMixBUFFKeptSelectionFollowsChainCodes(t *testing.T) {
	// Nothing enters or leaves the queue (both heads wait on operands),
	// so the kept selection must change exactly when a chain's code does.
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	env.block(true, 1)
	old := fpInst(0, 1, isa.NoReg, isa.NoReg)
	young := fpInst(1, 1, isa.NoReg, isa.NoReg)
	place(m, 0, 0, old)
	place(m, 0, 1, young)
	m.chain(0, 0).readyAt = 10
	m.chain(0, 1).readyAt = 12
	want := map[int64]*isa.Inst{
		9:  nil,   // both not ready
		10: old,   // old chain first-time
		11: old,   // old chain delayed, young not ready
		12: young, // first-time beats delayed
		13: old,   // both delayed: age decides
		14: old,
	}
	for env.cycle = 9; env.cycle <= 14; env.cycle++ {
		before := m.ev.SelRegWrites
		if n := m.Issue(env, 8); n != 0 {
			t.Fatalf("cycle %d: issued with operands blocked", env.cycle)
		}
		var got *isa.Inst
		if ch := m.selected(0, env.cycle); ch != nil {
			got = m.slots[ch.head]
		}
		if got != want[env.cycle] {
			t.Fatalf("cycle %d: selected %v, want %v", env.cycle, got, want[env.cycle])
		}
		if d := m.ev.SelRegWrites - before; (d == 1) != (got != nil) {
			t.Fatalf("cycle %d: %d selection register writes", env.cycle, d)
		}
	}
}

func TestMixBUFFFirstTimeBeatsDelayed(t *testing.T) {
	// A delayed instruction (chain long since ready) must lose to a
	// younger instruction whose chain became ready this cycle.
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	env.cycle = 50
	old := fpInst(0, isa.NoReg, isa.NoReg, isa.NoReg)
	old.AgeID = 1
	young := fpInst(1, isa.NoReg, isa.NoReg, isa.NoReg)
	young.AgeID = 2
	place(m, 0, 0, old)
	place(m, 0, 1, young)
	m.chain(0, 0).readyAt = 10
	m.chain(0, 1).readyAt = 50

	m.Issue(env, 8)
	if len(env.issued) != 1 || env.issued[0] != young {
		t.Fatal("first-time-ready instruction did not have priority")
	}
}

func TestMixBUFFChainFreedAndGenerationGuards(t *testing.T) {
	m := newTestMixBUFF(1, 8, 2)
	env := newFakeEnv()
	prod := fpInst(0, isa.NoReg, isa.NoReg, 7)
	m.Dispatch(env, prod)
	env.cycle = 1
	m.Issue(env, 8) // issues prod; chain 0 now empty and freed
	if m.chainBusy(0, 0) {
		t.Fatal("chain not freed after last instruction issued")
	}
	// A new independent instruction reuses chain 0.
	other := fpInst(1, isa.NoReg, isa.NoReg, 9)
	m.Dispatch(env, other)
	if other.ChainID != 0 {
		t.Fatalf("expected chain 0 reuse, got %d", other.ChainID)
	}
	// A consumer of the *old* chain's register must not append to the
	// recycled chain: its last instruction is another one, so the
	// consumer takes a fresh chain.
	cons := fpInst(2, 7, isa.NoReg, 8)
	m.Dispatch(env, cons)
	if cons.ChainID == 0 {
		t.Fatal("stale mapping appended to recycled chain")
	}
}

func TestMixBUFFAppendToChainWithIssuedTail(t *testing.T) {
	// The chain's last instruction has issued but the chain is still
	// busy (another instruction pending): a consumer of the issued
	// instruction may still append; pacing comes from the chain's
	// ready cycle.
	m := newTestMixBUFF(1, 8, 2)
	env := newFakeEnv()
	a := fpInst(0, isa.NoReg, isa.NoReg, 1)
	b := fpInst(1, 1, isa.NoReg, 2) // chain: a -> b
	m.Dispatch(env, a)
	m.Dispatch(env, b)
	env.cycle = 1
	m.Issue(env, 8) // a issues; b pending; chain busy
	c := fpInst(2, 2, isa.NoReg, 3)
	m.Dispatch(env, c)
	if c.ChainID != b.ChainID || c.QueueID != b.QueueID {
		t.Fatal("consumer did not append to busy chain")
	}
}

func TestMixBUFFQueueFullForcesNewChainElsewhere(t *testing.T) {
	m := newTestMixBUFF(2, 2, 2)
	env := newFakeEnv()
	a := fpInst(0, isa.NoReg, isa.NoReg, 1)
	b := fpInst(1, 1, isa.NoReg, 2)
	m.Dispatch(env, a)
	m.Dispatch(env, b) // queue 0 full
	c := fpInst(2, 2, isa.NoReg, 3)
	if !m.Dispatch(env, c) {
		t.Fatal("dispatch stalled although queue 1 has room")
	}
	if c.QueueID != 1 {
		t.Fatalf("consumer placed in queue %d, want 1", c.QueueID)
	}
}

func TestMixBUFFUnboundedChainsDefault(t *testing.T) {
	m := newTestMixBUFF(2, 16, 0)
	if m.chainN != 16 {
		t.Fatalf("unbounded chains = %d, want entries (16)", m.chainN)
	}
}

func TestMixBUFFRejectedSelectionKeepsEntry(t *testing.T) {
	m := newTestMixBUFF(1, 8, 4)
	env := newFakeEnv()
	in := fpInst(0, 7, isa.NoReg, 8)
	m.Dispatch(env, in)
	env.block(true, 7) // operand never ready
	env.cycle = 1
	if n := m.Issue(env, 8); n != 0 {
		t.Fatal("issued with unready operand")
	}
	if m.Occupancy() != 1 {
		t.Fatal("rejected instruction lost")
	}
	env.unblock(true, 7)
	env.cycle = 2
	if n := m.Issue(env, 8); n != 1 {
		t.Fatal("instruction did not issue once ready")
	}
}

func TestMixBUFFMispredictClearsTable(t *testing.T) {
	m := newTestMixBUFF(2, 8, 4)
	env := newFakeEnv()
	prod := fpInst(0, isa.NoReg, isa.NoReg, 7)
	m.Dispatch(env, prod)
	m.OnMispredictResolved()
	cons := fpInst(1, 7, isa.NoReg, 8)
	m.Dispatch(env, cons)
	if cons.ChainID == prod.ChainID && cons.QueueID == prod.QueueID {
		t.Fatal("consumer used cleared chain mapping")
	}
}

func TestMixBUFFEnergyEvents(t *testing.T) {
	m := newTestMixBUFF(2, 8, 4)
	env := newFakeEnv()
	m.Dispatch(env, fpInst(0, 1, 2, 7))
	ev := m.Events()
	if ev.QRenameReads != 2 || ev.QRenameWrites != 1 || ev.BuffWrites != 1 {
		t.Fatalf("dispatch events: %+v", ev)
	}
	env.cycle = 1
	m.Issue(env, 8)
	if ev.SelectOps != 1 || ev.ChainReads != 1 || ev.ChainWrites != 1 {
		t.Fatalf("issue events: %+v", ev)
	}
	if ev.BuffReads != 1 || ev.SelRegWrites != 1 {
		t.Fatalf("issue events: %+v", ev)
	}
}

func TestConfigNamesAndValidation(t *testing.T) {
	cases := map[string]Config{
		"IQ_64_64":            Baseline64(),
		"IQ_unbounded":        Unbounded(),
		"IssueFIFO_8x8_16x16": IssueFIFOCfg(8, 8, 16, 16),
		"LatFIFO_16x16_10x8":  LatFIFOCfg(16, 16, 10, 8),
		"MixBUFF_16x16_12x16": MixBUFFCfg(16, 16, 12, 16, 0),
		"IF_distr":            IFDistr(),
		"MB_distr":            MBDistr(),
	}
	for want, cfg := range cases {
		if cfg.Name != want {
			t.Errorf("name = %q, want %q", cfg.Name, want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", want, err)
		}
	}
	if !MBDistr().DistributedFU || !IFDistr().DistributedFU {
		t.Error("distr configs must distribute FUs")
	}
	if MBDistr().FP.Chains != 8 {
		t.Error("MB_distr must use 8 chains per queue")
	}
	bad := Config{Name: "bad", Int: DomainConfig{Kind: KindCAM, Queues: 2, Entries: 4},
		FP: DomainConfig{Kind: KindCAM, Queues: 1, Entries: 4}}
	if bad.Validate() == nil {
		t.Error("multi-queue CAM validated")
	}
}

func TestNewSchemeErrors(t *testing.T) {
	if _, err := New(DomainConfig{Kind: KindLatFIFO, Queues: 2, Entries: 2},
		defaultOpts(isa.FPDomain)); err == nil {
		t.Error("LatFIFO without estimator did not error")
	}
	if _, err := New(DomainConfig{Kind: Kind(99), Queues: 1, Entries: 2},
		defaultOpts(isa.FPDomain)); err == nil {
		t.Error("unknown kind did not error")
	}
	if _, err := New(DomainConfig{Kind: KindCAM, Queues: 1, Entries: 0},
		defaultOpts(isa.FPDomain)); err == nil {
		t.Error("zero entries did not error")
	}
}
