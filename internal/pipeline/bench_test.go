package pipeline

import (
	"testing"

	"distiq/internal/core"
	"distiq/internal/trace"
)

// BenchmarkStepSteadyState measures the per-committed-instruction cost of
// the cycle loop after warmup, per issue-queue organization: the three
// evaluation schemes, the 256-entry CAM reference every Figs. 2-6 point
// simulates, and the Fig. 6 MixBUFF shape with unbounded chains. The
// figure to watch is allocs/op: the steady-state hot path must stay allocation-free
// (TestStepSteadyStateAllocFree enforces it; cmd/iqbench records it in
// BENCH_*.json).
func BenchmarkStepSteadyState(b *testing.B) {
	for _, cfg := range []core.Config{
		core.Baseline64(), core.IFDistr(), core.MBDistr(),
		core.Unbounded(), core.MixBUFFCfg(16, 16, 8, 16, 0),
	} {
		b.Run(cfg.Name, func(b *testing.B) {
			gen := trace.NewGenerator(trace.MustByName("swim"))
			p, err := New(DefaultConfig(cfg), gen)
			if err != nil {
				b.Fatal(err)
			}
			p.Warmup(20_000)
			b.ReportAllocs()
			b.ResetTimer()
			p.Run(uint64(b.N))
		})
	}
}

// TestStepSteadyStateAllocFree pins the tentpole invariant: once warm, the
// cycle loop performs zero heap allocations per committed instruction for
// every organization of the evaluation (CAM baseline and unbounded
// reference, distributed FIFOs, distributed and Fig. 6 MixBUFF, and the
// LatFIFO estimator path) and for the adaptive-CAM and prescheduling
// extensions.
func TestStepSteadyStateAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, cfg := range []core.Config{
		core.Baseline64(), core.IFDistr(), core.MBDistr(),
		core.LatFIFOCfg(8, 8, 8, 16),
		core.Unbounded(), core.MixBUFFCfg(16, 16, 8, 16, 0),
		core.AdaptiveBaseline64(), core.PreSchedCfg(8, 8, 64, 0),
	} {
		for _, bench := range []string{"swim", "gcc"} {
			gen := trace.NewGenerator(trace.MustByName(bench))
			p, err := New(DefaultConfig(cfg), gen)
			if err != nil {
				t.Fatal(err)
			}
			p.Warmup(20_000)
			const insts = 20_000
			avg := testing.AllocsPerRun(1, func() { p.Run(insts) })
			// Tolerate stray runtime allocations (< one per 2000
			// instructions) but fail on any per-instruction or
			// per-cycle allocation.
			if avg > insts/2000 {
				t.Errorf("%s/%s: %.0f allocs per %d instructions, want ~0",
					cfg.Name, bench, avg, insts)
			}
		}
	}
}
