// Command perfbench is the repository benchmark. It drives distiq's public
// entry points — the paper figure harness over a local client, and distiqd
// sweeps over loopback HTTP — and prints every end-to-end metric, or with
// -trace 1 every per-layer metric, as one JSON line:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package from source and must be started from the
// repository root. Workloads, metric definitions and the layer each
// per-layer metric belongs to are described in perfbench/README.md.
//
// The benchmark stays outside the program: it times calls into the layers
// from here, by wrapping the interfaces the layers consume, and reads the
// counters and histograms the program already exports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"distiq/internal/engine"
)

// workDir holds everything a run writes: temp stores and span files. It
// lives inside the checkout (run.sh builds the binary there too).
var workDir = ".bench_build"

// goldenDir holds the committed QuickOptions figure tables the paper gate
// compares against; its presence also marks the repository root.
const goldenDir = "internal/sim/testdata/golden"

type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what a workload measured and what its gates found.
// attempted and failed count the workload's requests: figure sets on
// paper, sweeps on sweep-warm. failures lists every failed
// check, per request or for the whole run.
type report struct {
	metrics   map[string]metric
	info      map[string]any
	attempted int64
	failed    int64
	failures  []string
	setup     time.Duration // CPU time of the workload's set-up
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, info: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a failed correctness check; any failure makes the run
// exit non-zero.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// request counts one attempted request and whether it failed.
func (r *report) request(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: paper or sweep-warm")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&c.seconds, "seconds", 30, "run length the workload's fixed amount of work is sized to")
	fs.IntVar(&trace, "trace", 0, "0 prints end-to-end metrics, 1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("unknown -workload %q (want paper or sweep-warm)", c.workload)
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("-seconds must be positive, got %d", c.seconds)
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	c.traced = trace == 1
	return c, nil
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config, *report) error{
	"paper":      runPaper,
	"sweep-warm": runSweep,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if _, err := os.Stat(goldenDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(run(cfg))
}

// run executes one workload and prints its info and result lines. It
// returns the process exit code: 0 only when every correctness check held.
func run(cfg config) int {
	heap := watchHeap()
	rep := newReport()
	rep.info["workload"] = cfg.workload
	rep.info["seed"] = cfg.seed
	rep.info["seconds"] = cfg.seconds
	rep.info["traced"] = cfg.traced
	rep.info["go"] = runtime.Version()
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["nproc"] = runtime.NumCPU()
	// Every run starts from a fresh process, so the process-global shared
	// trace cache must be empty here; record it so a warm start shows.
	tc := engine.TraceCacheStats()
	rep.info["trace_cache_at_start"] = tc
	if tc.Hits+tc.Misses+int64(tc.Streams) != 0 {
		rep.fail("shared trace cache not empty at start: %+v", tc)
	}

	steal0 := stealSeconds()
	if err := workloads[cfg.workload](cfg, rep); err != nil {
		rep.fail("%v", err)
	}
	rep.info["host_steal_s"] = stealSeconds() - steal0
	rep.info["process_cpu_s"] = cpuTime().Seconds()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rep.info["rss_peak_mb"] = float64(ru.Maxrss) / 1024
	}
	if rep.attempted < 1 {
		// The workload failed before its first request.
		rep.request(false)
	}
	if !cfg.traced {
		if rep.setup > 0 {
			rep.set("setup_s", rep.setup.Seconds(), "s")
		}
		rep.set("mem_peak_mb", float64(heap.stop())/(1<<20), "MB")
		rep.set("ok_frac", 1-float64(rep.failed)/float64(rep.attempted), "ratio")
	}
	checkMetricSet(rep, cfg.traced)
	rep.info["failures"] = rep.failures

	info, err := json.Marshal(rep.info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode info:", err)
		return 1
	}
	fmt.Println(string(info))
	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, f := range rep.failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
		}
		return 1
	}
	return 0
}

// heapWatch tracks the largest live heap seen at the end of a GC cycle.
// The peak resident set moves by several percent from run to run with GC
// timing; the live heap it is made of does not.
type heapWatch struct {
	peak atomic.Uint64
	done atomic.Bool
}

// watchHeap starts sampling the live heap after every GC cycle, through a
// finalizer that re-arms itself until stop.
func watchHeap() *heapWatch {
	h := &heapWatch{}
	var arm func()
	arm = func() {
		runtime.SetFinalizer(new([16]byte), func(*[16]byte) {
			h.sample()
			if !h.done.Load() {
				arm()
			}
		})
	}
	arm()
	return h
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	for v := s[0].Value.Uint64(); ; {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop takes a final sample and returns the peak live heap in bytes.
func (h *heapWatch) stop() uint64 {
	h.done.Store(true)
	h.sample()
	return h.peak.Load()
}

// stealSeconds returns the machine's cumulative CPU time stolen by the
// hypervisor, from /proc/stat (0 where it is not reported). A run whose
// steal grew was slowed by other tenants of the host.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks float64
	fmt.Sscan(f[8], &ticks) //nolint:errcheck // a malformed field reads as 0
	return ticks / 100
}

// cpuTime returns the CPU time the process has used, in all its threads.
// The kernel does not count time the hypervisor gave to other tenants,
// so unlike wall time it does not grow with the host's CPU steal.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks; vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }
