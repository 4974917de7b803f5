package core

import (
	"distiq/internal/isa"
)

// fakeEnv is a controllable Env for scheme unit tests. Operand ready
// cycles follow the pipeline's rules: a register is architecturally ready
// (cycle 0) unless a test marks its producer as not issued (block);
// issuing a producer, through TryIssue or unblock, fixes the cycle its
// result becomes usable. TryIssue succeeds unless the instruction is
// vetoed, and records issue order.
type fakeEnv struct {
	cycle   int64
	readyAt map[[2]int32]int64 // {domIdx, preg} -> cycle usable or NotYet
	veto    map[uint64]bool    // seq -> TryIssue returns false
	issued  []*isa.Inst
	budget  int // optional cap enforced inside TryIssue (<=0: unlimited)
	reads   int // OperandReadyAt calls
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		readyAt: map[[2]int32]int64{},
		veto:    map[uint64]bool{},
		budget:  -1,
	}
}

func (e *fakeEnv) Cycle() int64 { return e.cycle }

func (e *fakeEnv) key(fp bool, preg int16) [2]int32 {
	d := int32(0)
	if fp {
		d = 1
	}
	return [2]int32{d, int32(preg)}
}

// block marks a register's producer as not issued.
func (e *fakeEnv) block(fp bool, preg int16) { e.readyAt[e.key(fp, preg)] = NotYet }

// unblock issues a blocked register's producer with its result usable
// from the current cycle on.
func (e *fakeEnv) unblock(fp bool, preg int16) { e.readyAt[e.key(fp, preg)] = e.cycle }

func (e *fakeEnv) OperandReadyAt(fp bool, preg int16) int64 {
	e.reads++
	return e.readyAt[e.key(fp, preg)]
}

func (e *fakeEnv) OperandReady(fp bool, preg int16) bool {
	return e.readyAt[e.key(fp, preg)] <= e.cycle
}

func (e *fakeEnv) TryIssue(in *isa.Inst) bool {
	if e.veto[in.Seq] {
		return false
	}
	if e.budget == 0 {
		return false
	}
	if e.budget > 0 {
		e.budget--
	}
	e.issued = append(e.issued, in)
	in.Issued = true
	if in.PDest != isa.NoReg {
		e.readyAt[e.key(in.DestFP, in.PDest)] = e.cycle + int64(latencyOf(in, isa.DefaultLatencies(), 2))
	}
	return true
}

func (e *fakeEnv) Older(a, b uint32) bool {
	if a == b {
		return false
	}
	return (b-a)&511 < 256
}

// mkInst builds a minimal instruction for scheme tests. Sources and dest
// use the same register number for logical and physical (tests do not
// rename).
func mkInst(seq uint64, class isa.Class, src1, src2, dest int16) *isa.Inst {
	in := &isa.Inst{
		Seq: seq, Class: class,
		Src1: src1, Src2: src2, Dest: dest,
	}
	fp := class.Domain() == isa.FPDomain
	in.Src1FP, in.Src2FP, in.DestFP = fp, fp, fp
	in.ResetMicro()
	in.PSrc1, in.PSrc2, in.PDest = src1, src2, dest
	in.AgeID = uint32(seq) & 511
	return in
}

func defaultOpts(d isa.Domain) Options {
	return Options{
		Domain:    d,
		Latencies: isa.DefaultLatencies(),
		MemHitLat: 2,
		FUCounts:  [isa.NumFUKinds]int{8, 4, 4, 4},
	}
}
