package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/isa"
	"distiq/internal/pipeline"
	"distiq/internal/power"
	"distiq/internal/trace"
)

// Scheme kinds the per-layer core metrics are split by. The paper's
// figures use exactly these four organizations.
var kindNames = [...]string{"CAM", "IssueFIFO", "LatFIFO", "MixBUFF"}

func kindIndex(k core.Kind) (int, bool) {
	switch k {
	case core.KindCAM:
		return 0, true
	case core.KindIssueFIFO:
		return 1, true
	case core.KindLatFIFO:
		return 2, true
	case core.KindMixBUFF:
		return 3, true
	}
	return 0, false
}

// Sampling: in every sampleEvery cycles the traced simulation times one
// window of sampleWindow cycles as whole Step calls, and another, half a
// period later, as the fetcher and scheme calls inside Step. time.Now
// costs ~60-90 ns here and a cycle makes several such calls, so timing
// every call of every cycle would triple the cost of the cheapest scheme;
// and timing Step around timed inner calls would bury its own time under
// theirs. Sampling one cycle in sixteen keeps the overhead small.
const (
	sampleEvery  = 1024
	sampleWindow = 64
)

// Scheme calls the core metrics time, indexing layerAcc.ns and calls.
const (
	opIssue = iota
	opDispatch
	opWakeup
	numOps
)

var opNames = [numOps]string{"issue", "dispatch", "wakeup"}

// layerAcc accumulates one simulation's sampled layer times. A pipeline
// runs on one goroutine, so its accumulator needs no locking; the tracer
// merges it under a lock when the job ends.
type layerAcc struct {
	on bool // inside a sampled window

	stepNs, stepCycles  int64 // Step-timed windows
	innerCycles         int64 // call-timed windows
	nextNs, nextCalls   int64
	ns, calls           [numOps][len(kindNames)]int64
	kindInsts           [len(kindNames)]int64 // committed in call-timed windows
	present             [len(kindNames)]bool
	cycles, insts, jobs int64
}

func (a *layerAcc) merge(b *layerAcc) {
	a.stepNs += b.stepNs
	a.stepCycles += b.stepCycles
	a.innerCycles += b.innerCycles
	a.nextNs += b.nextNs
	a.nextCalls += b.nextCalls
	for op := range a.ns {
		for k := range kindNames {
			a.ns[op][k] += b.ns[op][k]
			a.calls[op][k] += b.calls[op][k]
		}
	}
	for k := range kindNames {
		a.kindInsts[k] += b.kindInsts[k]
	}
	a.cycles += b.cycles
	a.insts += b.insts
	a.jobs += b.jobs
}

// coreTotals returns the summed scheme-call time and call count.
func (a *layerAcc) coreTotals() (ns, calls int64) {
	for op := range a.ns {
		for k := range kindNames {
			ns += a.ns[op][k]
			calls += a.calls[op][k]
		}
	}
	return ns, calls
}

// timedFetcher wraps the trace supply the pipeline consumes.
type timedFetcher struct {
	inner pipeline.Fetcher
	acc   *layerAcc
}

func (f *timedFetcher) Next(in *isa.Inst) {
	if !f.acc.on {
		f.inner.Next(in)
		return
	}
	t := time.Now()
	f.inner.Next(in)
	f.acc.nextNs += int64(time.Since(t))
	f.acc.nextCalls++
}

// timedScheme forwards every call to the scheme core.New built and times
// the three the pipeline makes per cycle or per instruction.
type timedScheme struct {
	core.Scheme
	acc  *layerAcc
	kind int
}

func (s *timedScheme) Dispatch(env core.Env, in *isa.Inst) bool {
	if !s.acc.on {
		return s.Scheme.Dispatch(env, in)
	}
	t := time.Now()
	ok := s.Scheme.Dispatch(env, in)
	s.acc.ns[opDispatch][s.kind] += int64(time.Since(t))
	s.acc.calls[opDispatch][s.kind]++
	return ok
}

func (s *timedScheme) Issue(env core.Env, budget int) int {
	if !s.acc.on {
		return s.Scheme.Issue(env, budget)
	}
	t := time.Now()
	n := s.Scheme.Issue(env, budget)
	s.acc.ns[opIssue][s.kind] += int64(time.Since(t))
	s.acc.calls[opIssue][s.kind]++
	return n
}

func (s *timedScheme) OnComplete(env core.Env, destFP bool) {
	if !s.acc.on {
		s.Scheme.OnComplete(env, destFP)
		return
	}
	t := time.Now()
	s.Scheme.OnComplete(env, destFP)
	s.acc.ns[opWakeup][s.kind] += int64(time.Since(t))
	s.acc.calls[opWakeup][s.kind]++
}

// wrapDomain installs the timing wrapper as the domain's Custom factory.
// The factory clears Custom and builds the real scheme with core.New, so
// the pipeline runs exactly the scheme it would have built itself.
func wrapDomain(dc *core.DomainConfig, acc *layerAcc) error {
	k, ok := kindIndex(dc.Kind)
	if !ok {
		return fmt.Errorf("scheme kind %v is not traced", dc.Kind)
	}
	acc.present[k] = true
	dc.Custom = func(c core.DomainConfig, opt core.Options) (core.Scheme, error) {
		c.Custom = nil
		s, err := core.New(c, opt)
		if err != nil {
			return nil, err
		}
		return &timedScheme{Scheme: s, acc: acc, kind: k}, nil
	}
	return nil
}

// span is one traced interval, in nanoseconds since the tracer started.
// Child time inside a simulate span is aggregated into its attributes
// rather than kept as millions of tiny spans.
type span struct {
	Name   string           `json:"name"`
	ID     string           `json:"id"`
	Parent string           `json:"parent,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer owns the traced pass: a sampling simulate function for the
// engine, a private pre-materialized trace cache, the merged layer times
// and the span log.
type tracer struct {
	cache *trace.Cache
	t0    time.Time
	floor float64 // ns a timed interval around nothing reads

	mu    sync.Mutex
	total layerAcc
	spans []span
}

// newTracer returns a tracer whose trace cache holds every named
// benchmark's first n instructions, as the shared cache does after
// engine.WarmTraces.
func newTracer(benches []string, n uint64) (*tracer, error) {
	cache, err := newTraceCache(benches, n)
	if err != nil {
		return nil, err
	}
	return &tracer{cache: cache, t0: time.Now(), floor: timerFloor()}, nil
}

// newTraceCache returns a private trace cache of the shared cache's
// capacity holding each benchmark's stream up to n instructions.
func newTraceCache(benches []string, n uint64) (*trace.Cache, error) {
	cache := trace.NewCache(trace.DefaultCacheCap)
	for _, b := range benches {
		m, err := trace.ByName(b)
		if err != nil {
			return nil, err
		}
		r := cache.Reader(m)
		var in isa.Inst
		for i := uint64(0); i < n; i++ {
			r.Next(&in)
		}
	}
	return cache, nil
}

// timerFloor returns what an empty timed interval reads, in ns: the
// median of five batches.
func timerFloor() float64 {
	const n = 200_000
	var floors []float64
	for rep := 0; rep < 5; rep++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			s := time.Now()
			sum += time.Since(s)
		}
		floors = append(floors, float64(sum)/n)
	}
	return median(floors)
}

func (t *tracer) since() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// simulate is an engine.Config.Simulate replacement that does what
// engine.Simulate does — warm up, reset the statistics, run the measured
// instructions, assemble the result — while driving Step itself so it can
// time sampled cycle windows.
func (t *tracer) simulate(j engine.Job) (engine.Result, error) {
	if j.Seed != 0 {
		return engine.Result{}, fmt.Errorf("traced simulate: replication seeds are not used by any workload")
	}
	model, err := trace.ByName(j.Bench)
	if err != nil {
		return engine.Result{}, err
	}
	start := t.since()
	acc := &layerAcc{}
	cfg := j.PipelineConfig()
	if err := wrapDomain(&cfg.IQ.Int, acc); err != nil {
		return engine.Result{}, err
	}
	if err := wrapDomain(&cfg.IQ.FP, acc); err != nil {
		return engine.Result{}, err
	}
	p, err := pipeline.New(cfg, &timedFetcher{inner: t.cache.Reader(model), acc: acc})
	if err != nil {
		return engine.Result{}, err
	}
	if err := runSampled(p, j.Opt.Warmup, acc); err != nil {
		return engine.Result{}, err
	}
	p.BeginMeasurement()
	if err := runSampled(p, j.Opt.Instructions, acc); err != nil {
		return engine.Result{}, err
	}
	res := assemble(j, p)
	acc.jobs = 1
	end := t.since()
	coreNs, _ := acc.coreTotals()

	t.mu.Lock()
	t.total.merge(acc)
	t.spans = append(t.spans, span{
		Name: "simulate", ID: j.Bench + "/" + j.Config.Name, Start: start, End: end,
		Attrs: map[string]int64{
			"step_cycles": acc.stepCycles, "step_ns": acc.stepNs, "inner_cycles": acc.innerCycles,
			"core_ns": coreNs, "trace_ns": acc.nextNs,
			"cycles": acc.cycles, "insts": acc.insts,
		},
	})
	t.mu.Unlock()
	return res, nil
}

// runSampled is pipeline.Run with sampled cycle windows: it steps until n
// more instructions commit, timing Step on the Step-timed windows and,
// through the wrappers, the calls inside Step on the call-timed ones.
func runSampled(p *pipeline.Pipeline, n uint64, acc *layerAcc) error {
	target := p.Committed() + n
	last := p.Committed()
	idle := 0
	for p.Committed() < target {
		c0 := p.Committed()
		switch phase := p.CurrentCycle() % sampleEvery; {
		case phase < sampleWindow:
			t := time.Now()
			p.Step()
			acc.stepNs += int64(time.Since(t))
			acc.stepCycles++
		case phase >= sampleEvery/2 && phase < sampleEvery/2+sampleWindow:
			acc.on = true
			p.Step()
			acc.on = false
			acc.innerCycles++
			d := int64(p.Committed() - c0)
			for k, ok := range acc.present {
				if ok {
					acc.kindInsts[k] += d
				}
			}
		default:
			p.Step()
		}
		acc.cycles++
		acc.insts += int64(p.Committed() - c0)
		if p.Committed() == last {
			if idle++; idle > 200_000 {
				return fmt.Errorf("traced simulate: no commit for %d cycles at cycle %d", idle, p.CurrentCycle())
			}
		} else {
			idle, last = 0, p.Committed()
		}
	}
	return nil
}

// assemble builds a job's Result from its finished pipeline exactly as
// the engine does.
func assemble(j engine.Job, p *pipeline.Pipeline) engine.Result {
	st := p.Stats()
	res := engine.Result{Stats: st}
	res.Benchmark = j.Bench
	res.Config = j.Config.Name
	res.Insts = st.Committed
	res.Cycles = st.Cycles
	intScheme := p.Scheme(isa.IntDomain)
	fpScheme := p.Scheme(isa.FPDomain)
	res.IntBreakdown = power.NewCalc(intScheme.Geometry()).Energy(intScheme.Events())
	res.FPBreakdown = power.NewCalc(fpScheme.Geometry()).Energy(fpScheme.Events())
	res.Breakdown = power.Breakdown{}
	res.Breakdown.Add(res.IntBreakdown)
	res.Breakdown.Add(res.FPBreakdown)
	res.IQEnergy = res.Breakdown.Total()
	return res
}

// layerMetrics reports the sampled trace, pipeline and core metrics. A
// timed interval reads its work plus the timer floor, which is taken off.
// Pipeline self time per cycle is the Step time per Step-timed cycle less
// the fetcher and scheme time per call-timed cycle.
func (t *tracer) layerMetrics(rep *report) {
	t.mu.Lock()
	a := t.total
	t.mu.Unlock()
	net := func(ns, calls int64) float64 { return max(float64(ns)-float64(calls)*t.floor, 0) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	coreNs, coreCalls := a.coreTotals()
	step := ratio(net(a.stepNs, a.stepCycles), float64(a.stepCycles))
	next := ratio(net(a.nextNs, a.nextCalls), float64(a.innerCycles))
	coreC := ratio(net(coreNs, coreCalls), float64(a.innerCycles))
	rep.set("trace.next_ns", ratio(net(a.nextNs, a.nextCalls), float64(a.nextCalls)), "ns")
	rep.set("pipeline.self_ns_per_cycle", max(step-next-coreC, 0), "ns")
	rep.set("core.share", ratio(coreC, step), "ratio")
	for k, name := range kindNames {
		for op, opName := range opNames {
			rep.set("core."+opName+"_ns."+name, ratio(net(a.ns[op][k], a.calls[op][k]), float64(a.kindInsts[k])), "ns")
		}
	}
	rep.set("pipeline.cycles", float64(a.cycles), "count")
	rep.set("pipeline.insts", float64(a.insts), "count")
	rep.info["traced_step_ns_per_cycle"] = step
	rep.info["traced_sampled_cycles"] = a.stepCycles + a.innerCycles
	rep.info["timer_floor_ns"] = t.floor
	rep.info["traced_jobs"] = a.jobs
}

// writeSpans writes the span log under the work directory and returns
// its path.
func (t *tracer) writeSpans(name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
