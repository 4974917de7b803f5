// Package core implements the issue-queue organizations studied in the
// paper: the conventional CAM/RAM baseline, Palacharla-style dependence
// FIFOs (IssueFIFO), latency-placed FIFOs (LatFIFO) and the paper's
// contribution, MixBUFF — multi-chain buffers selected by compressed
// latency codes concatenated with age identifiers — plus the distributed
// functional-unit wiring of IF_distr and MB_distr.
//
// A Scheme instance manages one dispatch domain (integer or floating
// point). It decides where dispatched instructions are placed and which
// instructions are offered for issue each cycle; the pipeline owns operand
// readiness, functional units and memory, which schemes reach through the
// Env interface. Schemes also count the microarchitectural events the
// power model converts into energy.
package core

import (
	"fmt"

	"distiq/internal/isa"
	"distiq/internal/power"
	"distiq/internal/rename"
)

// Env is the pipeline interface available to issue schemes.
type Env interface {
	// Cycle returns the current simulation cycle.
	Cycle() int64
	// OperandReady reports whether a physical register's value is
	// usable this cycle through the bypass network.
	OperandReady(fp bool, preg int16) bool
	// OperandReadyAt returns the cycle a physical register's value
	// becomes usable, or NotYet while its producer has not issued. A
	// live register's ready cycle is set once, when its producer issues,
	// and is never earlier than the cycle after that issue, so a
	// scheme may cache any answer other than NotYet for as long as a
	// consumer of the register is in flight.
	OperandReadyAt(fp bool, preg int16) int64
	// TryIssue attempts to issue the instruction this cycle: it checks
	// operand readiness, memory ordering (loads), issue width and
	// functional-unit availability (honoring the distributed binding
	// through in.QueueID) and, on success, schedules execution and
	// returns true. The scheme must then remove the instruction from
	// its structures.
	TryIssue(in *isa.Inst) bool
	// Older reports whether age identifier a is older than b.
	Older(a, b uint32) bool
}

// NotYet is OperandReadyAt's answer for a register whose producer has not
// issued.
const NotYet = rename.FarFuture

// Scheme is one domain's issue-queue organization.
type Scheme interface {
	// Name identifies the organization ("CAM", "IssueFIFO", ...).
	Name() string
	// Dispatch places in into the scheme's structures, returning false
	// (with no state change) when dispatch must stall.
	Dispatch(env Env, in *isa.Inst) bool
	// Issue is called once per cycle; the scheme offers instructions to
	// env.TryIssue in its selection order, stopping at the budget, and
	// returns how many issued.
	Issue(env Env, budget int) int
	// OnComplete notifies the scheme that a result was produced
	// (destFP gives the destination register file), for wakeup
	// accounting in CAM organizations.
	OnComplete(env Env, destFP bool)
	// OnMispredictResolved is called when a mispredicted branch
	// resolves; map-table-based schemes clear their tables.
	OnMispredictResolved()
	// Occupancy returns the number of instructions currently held.
	Occupancy() int
	// Capacity returns the total number of entries.
	Capacity() int
	// Events exposes the scheme's energy event counters.
	Events() *power.Events
	// Geometry describes the scheme to the power model.
	Geometry() power.Geometry
}

// Kind selects an issue-queue organization.
type Kind uint8

const (
	// KindCAM is the conventional out-of-order CAM/RAM queue.
	KindCAM Kind = iota
	// KindIssueFIFO is Palacharla's dependence-based FIFO organization.
	KindIssueFIFO
	// KindLatFIFO places instructions in FIFOs by estimated issue time.
	KindLatFIFO
	// KindMixBUFF is the paper's buffer-of-chains organization.
	KindMixBUFF
	// KindAdaptiveCAM is the CAM queue with Folegnani-González dynamic
	// resizing (the paper's reference [14]), provided as an extension
	// for baseline-energy ablations.
	KindAdaptiveCAM
	// KindPreSched is Michaud-Seznec data-flow prescheduling (the
	// paper's reference [18]): a large wakeup-free preschedule buffer
	// promoting into a small first-level CAM queue. Extension.
	KindPreSched
)

var kindNames = map[Kind]string{
	KindCAM: "CAM", KindIssueFIFO: "IssueFIFO",
	KindLatFIFO: "LatFIFO", KindMixBUFF: "MixBUFF",
	KindAdaptiveCAM: "AdaptiveCAM", KindPreSched: "PreSched",
}

// String returns the organization name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// DomainConfig configures one domain's scheme.
type DomainConfig struct {
	Kind    Kind
	Queues  int // number of queues (1 for CAM)
	Entries int // entries per queue
	// Chains bounds chains per queue for MixBUFF; 0 means unbounded
	// (limited only by the entry count, since every instruction
	// occupies an entry).
	Chains int
	// Custom, when non-nil, overrides Kind and builds a user-defined
	// scheme — the extension point for experimenting with new issue
	// logic organizations against the same pipeline and workloads.
	Custom func(DomainConfig, Options) (Scheme, error)

	// Ablation switches (all false in the paper's configurations):
	//
	// KeepMapOnMispredict disables clearing the register-to-queue map
	// table when a misprediction resolves. The paper found clearing
	// costs nothing and simplifies the hardware; this switch quantifies
	// that claim on this simulator.
	KeepMapOnMispredict bool
	// FlatSelectPriority removes MixBUFF's first-time-over-delayed
	// priority: ready chains compete by age alone, quantifying the
	// paper's selection heuristic.
	FlatSelectPriority bool
}

// Total returns the total entry count of the domain.
func (d DomainConfig) Total() int { return d.Queues * d.Entries }

// Validate checks the configuration.
func (d DomainConfig) Validate() error {
	if d.Queues <= 0 || d.Entries <= 0 {
		return fmt.Errorf("core: need positive queues/entries, got %dx%d", d.Queues, d.Entries)
	}
	if (d.Kind == KindCAM || d.Kind == KindAdaptiveCAM) && d.Queues != 1 && d.Custom == nil {
		return fmt.Errorf("core: CAM domain uses a single queue, got %d", d.Queues)
	}
	if d.Chains < 0 || d.Chains > d.Entries {
		return fmt.Errorf("core: chains %d outside [0,%d]", d.Chains, d.Entries)
	}
	return nil
}

// Options carries cross-cutting construction parameters.
type Options struct {
	Domain      isa.Domain
	Latencies   isa.Latencies
	MemHitLat   int // L1D hit latency, assumed for loads by estimators
	Distributed bool
	FUCounts    [isa.NumFUKinds]int
	// Estimator, when non-nil, is the shared dispatch-time issue-cycle
	// estimator (required by LatFIFO).
	Estimator *Estimator
}

// fanout computes the crossbar fanout per FU kind for the power model.
func (o Options) fanout() [isa.NumFUKinds]int {
	var f [isa.NumFUKinds]int
	kinds := []isa.FUKind{isa.IntALUUnit, isa.IntMulUnit}
	if o.Domain == isa.FPDomain {
		kinds = []isa.FUKind{isa.FPAddUnit, isa.FPMulUnit}
	}
	for _, k := range kinds {
		if o.Distributed {
			f[k] = 1
		} else {
			f[k] = o.FUCounts[k]
		}
	}
	return f
}

// New constructs a scheme for one domain.
func New(cfg DomainConfig, opt Options) (Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Custom != nil {
		return cfg.Custom(cfg, opt)
	}
	switch cfg.Kind {
	case KindCAM:
		return newCAM(cfg, opt), nil
	case KindAdaptiveCAM:
		return newAdaptiveCAM(cfg, opt), nil
	case KindPreSched:
		if opt.Estimator == nil {
			return nil, fmt.Errorf("core: PreSched requires an estimator")
		}
		return newPreSched(cfg, opt), nil
	case KindIssueFIFO:
		return newIssueFIFO(cfg, opt), nil
	case KindLatFIFO:
		if opt.Estimator == nil {
			return nil, fmt.Errorf("core: LatFIFO requires an estimator")
		}
		return newLatFIFO(cfg, opt), nil
	case KindMixBUFF:
		return newMixBUFF(cfg, opt), nil
	}
	return nil, fmt.Errorf("core: unknown scheme kind %v", cfg.Kind)
}

// source returns register source k (0 or 1) of in: its register file
// and physical register, NoReg when absent.
func source(in *isa.Inst, k int) (fp bool, preg int16) {
	if k == 0 {
		return in.Src1FP, in.PSrc1
	}
	return in.Src2FP, in.PSrc2
}

// IssueOperand returns register source k (0 or 1) of in and whether it
// gates issue. Every register source does except a store's data operand
// (Src2): the paper splits stores into address computation (issued as
// soon as the address register is ready) and the memory write (performed
// at commit, by which time in-order retirement guarantees the data).
func IssueOperand(in *isa.Inst, k int) (fp bool, preg int16, gates bool) {
	fp, preg = source(in, k)
	return fp, preg, preg != isa.NoReg && (k == 0 || in.Class != isa.Store)
}

// readyCache holds the ready cycles of one instruction's issue operands,
// 0 for a source that does not gate issue. Each is read from the Env
// until its producer has issued, and never again after.
type readyCache [2]int64

// unread is the state of a readyCache that has read nothing yet.
var unread = readyCache{NotYet, NotYet}

// at returns the cycle every issue operand of in is usable, or NotYet
// while one of their producers has not issued. The second operand is
// read only once the first is known.
func (c *readyCache) at(env Env, in *isa.Inst) int64 {
	for k := range c {
		if c[k] != NotYet {
			continue
		}
		c[k] = 0
		if fp, preg, gates := IssueOperand(in, k); gates {
			if c[k] = env.OperandReadyAt(fp, preg); c[k] == NotYet {
				return NotYet
			}
		}
	}
	return max(c[0], c[1])
}

// producerMap maps a register (file, physical index) to 1 + the slot of
// its unissued producer in a scheme, 0 when the scheme holds none.
type producerMap [2][isa.NumPhysicalRegs]int32

// cell returns a pointer to a register's entry, or nil for NoReg and
// registers outside the map.
func (m *producerMap) cell(fp bool, preg int16) *int32 {
	if preg < 0 || int(preg) >= isa.NumPhysicalRegs {
		return nil
	}
	return &m[domIdx(fp)][preg]
}

// older reports whether a is older than b. Seq numbers follow fetch order,
// which is dispatch and age order, so they rank exactly as the age
// identifiers do without the modular compare.
func older(a, b *isa.Inst) bool { return a.Seq < b.Seq }

// ageSorted sorts candidate instructions oldest first. The slices are tiny
// (at most one candidate per queue), so an insertion sort beats
// sort.Slice and, unlike it, never allocates.
func ageSorted(ins []*isa.Inst) {
	for i := 1; i < len(ins); i++ {
		in := ins[i]
		j := i - 1
		for j >= 0 && older(in, ins[j]) {
			ins[j+1] = ins[j]
			j--
		}
		ins[j+1] = in
	}
}

// latencyOf returns the execution latency a scheme assumes for pacing
// purposes: fixed operation latencies, with the L1 hit latency added for
// loads (the paper's assumption).
func latencyOf(in *isa.Inst, lat isa.Latencies, memHit int) int {
	l := lat[in.Class]
	if in.Class == isa.Load {
		l += memHit
	}
	return l
}
