package core

import (
	"testing"

	"distiq/internal/isa"
	"distiq/internal/rng"
)

// stressEnv is an Env whose operand readiness follows the pipeline's
// rules without the pipeline: a register allocated to a dispatched
// producer reads NotYet until the producer issues, then becomes usable a
// fixed latency later.
type stressEnv struct {
	cycle   int64
	readyAt map[[2]int32]int64 // (dom,preg) -> cycle usable or NotYet
	issued  []*isa.Inst
	budget  int
}

func newStressEnv() *stressEnv {
	return &stressEnv{readyAt: map[[2]int32]int64{}, budget: 1 << 30}
}

func key(fp bool, preg int16) [2]int32 {
	d := int32(0)
	if fp {
		d = 1
	}
	return [2]int32{d, int32(preg)}
}

func (e *stressEnv) Cycle() int64 { return e.cycle }

// OperandReadyAt treats unknown registers as architecturally ready.
func (e *stressEnv) OperandReadyAt(fp bool, preg int16) int64 {
	return e.readyAt[key(fp, preg)]
}

func (e *stressEnv) OperandReady(fp bool, preg int16) bool {
	return e.OperandReadyAt(fp, preg) <= e.cycle
}

// allocate renames in's destination: its value is not ready until in
// issues.
func (e *stressEnv) allocate(in *isa.Inst) {
	if in.PDest != isa.NoReg {
		e.readyAt[key(in.DestFP, in.PDest)] = NotYet
	}
}

func (e *stressEnv) TryIssue(in *isa.Inst) bool {
	if e.budget <= 0 {
		return false
	}
	for k := 0; k < 2; k++ {
		if fp, preg, gates := IssueOperand(in, k); gates && !e.OperandReady(fp, preg) {
			return false
		}
	}
	e.budget--
	lat := int64(isa.DefaultLatencies()[in.Class])
	if in.Class == isa.Load {
		lat += 2
	}
	if in.PDest != isa.NoReg {
		e.readyAt[key(in.DestFP, in.PDest)] = e.cycle + lat
	}
	in.Issued = true
	e.issued = append(e.issued, in)
	return true
}

func (e *stressEnv) Older(a, b uint32) bool {
	if a == b {
		return false
	}
	return (b-a)&511 < 256
}

// TestSchemeStress drives every organization with randomized dependent
// traffic and checks conservation and liveness: every dispatched
// instruction eventually issues exactly once, occupancy bookkeeping stays
// consistent, and the scheme never exceeds its capacity.
func TestSchemeStress(t *testing.T) {
	mk := func(kind Kind, chains int) func() Scheme {
		return func() Scheme {
			s, err := New(DomainConfig{Kind: kind, Queues: 4, Entries: 8, Chains: chains},
				defaultOpts(isa.FPDomain))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	camMk := func() Scheme {
		s, err := New(DomainConfig{Kind: KindCAM, Queues: 1, Entries: 32},
			defaultOpts(isa.FPDomain))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	adaptiveMk := func() Scheme {
		s, err := New(DomainConfig{Kind: KindAdaptiveCAM, Queues: 1, Entries: 32},
			defaultOpts(isa.FPDomain))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := map[string]func() Scheme{
		"CAM":         camMk,
		"AdaptiveCAM": adaptiveMk,
		"IssueFIFO":   mk(KindIssueFIFO, 0),
		"MixBUFF":     mk(KindMixBUFF, 4),
		"MixBUFF-unb": mk(KindMixBUFF, 0),
	}
	for name, build := range cases {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			stressOne(t, build())
		})
	}

	// PreSched needs the estimator wired.
	t.Run("PreSched", func(t *testing.T) {
		opt := defaultOpts(isa.FPDomain)
		opt.Estimator = NewEstimator(opt.Latencies, opt.MemHitLat)
		s, err := New(DomainConfig{Kind: KindPreSched, Queues: 1, Entries: 32, Chains: 8}, opt)
		if err != nil {
			t.Fatal(err)
		}
		stressLat(t, s, opt.Estimator)
	})

	// LatFIFO needs the estimator wired.
	t.Run("LatFIFO", func(t *testing.T) {
		opt := defaultOpts(isa.FPDomain)
		opt.Estimator = NewEstimator(opt.Latencies, opt.MemHitLat)
		s, err := New(DomainConfig{Kind: KindLatFIFO, Queues: 4, Entries: 8}, opt)
		if err != nil {
			t.Fatal(err)
		}
		stressLat(t, s, opt.Estimator)
	})
}

func stressOne(t *testing.T, s Scheme) {
	stress(t, s, nil)
}

func stressLat(t *testing.T, s Scheme, est *Estimator) {
	stress(t, s, est)
}

func stress(t *testing.T, s Scheme, est *Estimator) {
	t.Helper()
	env := newStressEnv()
	r := rng.New(uint64(len(s.Name())) * 977)

	const total = 6000
	dispatched := 0
	seq := uint64(0)
	inFlight := map[uint64]bool{}
	issuedSeqs := map[uint64]bool{}
	var lastDest, lastPDest int16 = isa.NoReg, isa.NoReg

	for env.cycle = 1; dispatched < total || len(inFlight) > 0; env.cycle++ {
		if env.cycle > 20*total {
			t.Fatalf("%s: livelock, %d in flight after %d cycles (occ %d)",
				s.Name(), len(inFlight), env.cycle, s.Occupancy())
		}
		// Issue phase.
		before := len(env.issued)
		s.Issue(env, 4)
		for _, in := range env.issued[before:] {
			if issuedSeqs[in.Seq] {
				t.Fatalf("%s: seq %d issued twice", s.Name(), in.Seq)
			}
			issuedSeqs[in.Seq] = true
			if !inFlight[in.Seq] {
				t.Fatalf("%s: issued seq %d that was never dispatched", s.Name(), in.Seq)
			}
			delete(inFlight, in.Seq)
		}
		// Dispatch phase: up to 4 per cycle, random dependence on the
		// previous destination half the time. Destinations rotate
		// through the physical registers, as renaming would, so none is
		// reused while a consumer of its old value can be in flight.
		for k := 0; k < 4 && dispatched < total; k++ {
			var src1, psrc1 int16 = isa.NoReg, isa.NoReg
			if lastDest != isa.NoReg && r.Bool(0.5) {
				src1, psrc1 = lastDest, lastPDest
			}
			dest := int16(r.Intn(32))
			in := mkInst(seq, isa.FPAdd, src1, isa.NoReg, dest)
			in.PSrc1, in.PDest = psrc1, int16(seq%isa.NumPhysicalRegs)
			if est != nil {
				est.OnDispatch(in, env.cycle)
			}
			env.allocate(in)
			if !s.Dispatch(env, in) {
				if s.Occupancy() == 0 {
					t.Fatalf("%s: dispatch stalled on empty scheme", s.Name())
				}
				break
			}
			inFlight[in.Seq] = true
			seq++
			dispatched++
			lastDest, lastPDest = dest, in.PDest
			if s.Occupancy() > s.Capacity() {
				t.Fatalf("%s: occupancy %d exceeds capacity %d",
					s.Name(), s.Occupancy(), s.Capacity())
			}
		}
		// Occasional mispredict-resolution clears.
		if r.Bool(0.01) {
			s.OnMispredictResolved()
		}
		// Occasional result broadcasts for CAM accounting.
		if r.Bool(0.2) {
			s.OnComplete(env, true)
		}
	}
	if s.Occupancy() != 0 {
		t.Fatalf("%s: %d instructions stuck at end", s.Name(), s.Occupancy())
	}
	if len(issuedSeqs) != total {
		t.Fatalf("%s: issued %d of %d dispatched", s.Name(), len(issuedSeqs), total)
	}
}
