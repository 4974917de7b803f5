package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/obs"
	"distiq/internal/sim"
	"distiq/internal/trace"
)

// paperOpt is the paper workload's run length: sim.QuickOptions (5k + 20k
// instructions a job), the lengths the committed golden tables were
// generated at, so every figure set is checked against them. At the
// `iqfig -all` lengths (20k + 100k) one set takes 35-40 s of CPU time on
// the 2-CPU reference container, so a run could time it only once; at
// these lengths it times four sets and reports their median.
var paperOpt = sim.QuickOptions()

// paperSetSeconds sizes the workload: a run regenerates
// max(2, round(seconds/paperSetSeconds)) figure sets, each through a
// fresh client. One set takes about 8 s of CPU time on the reference
// container, so a 30 s run measures four.
const paperSetSeconds = 8

// paperWorkers is the engine's worker count on the timed passes. With one
// worker a figure's CPU time equals its wall time on an idle host, and
// the run does not depend on how the host lends the container its second
// CPU (two goroutines doing the same work took from one to two times as
// long as one, from one second to the next). The traced passes use
// GOMAXPROCS workers.
const paperWorkers = 1

// paperSetupSamples is how many times set-up's work is timed. It takes
// about 0.1 s of CPU time, so a single timing moves by a quarter from run
// to run.
const paperSetupSamples = 3

// paperSetup warms the process-global shared trace cache with every
// benchmark's stream at the figure run length, so timing starts with the
// caches filled. It returns the median CPU time of that warm-up and of
// paperSetupSamples-1 earlier ones into private caches of the same
// capacity, which generate the same streams. The private caches are
// garbage before the shared one fills, so they do not raise the peak
// heap.
func paperSetup() (time.Duration, error) {
	n := paperOpt.Warmup + paperOpt.Instructions
	var samples []float64
	for len(samples) < paperSetupSamples-1 {
		cpu0 := cpuTime()
		if _, err := newTraceCache(trace.AllBenchmarks(), n); err != nil {
			return 0, err
		}
		samples = append(samples, float64(cpuTime()-cpu0))
	}
	cpu0 := cpuTime()
	if err := engine.WarmTraces(trace.AllBenchmarks(), n); err != nil {
		return 0, err
	}
	samples = append(samples, float64(cpuTime()-cpu0))
	return time.Duration(median(samples)), nil
}

// paperOut is what one regeneration of the figure set produced: each
// figure's table and CPU time (in sim.FigureNumbers order), the set's
// wall time and the CPU time the host stole meanwhile.
type paperOut struct {
	figCPU  []time.Duration
	wall    time.Duration
	steal   float64
	tables  map[int]string
	jobs    []engine.Job // distinct simulated jobs, sorted by key
	results []engine.Result
	stats   engine.Stats
	expo    []byte // the engine's metrics exposition
	session *sim.Session
}

// paperPass regenerates every figure through a fresh local client with
// the given number of workers (0 for GOMAXPROCS) and no persistent store.
// simulate overrides the engine's simulator when non-nil (the traced
// pass).
func paperPass(workers int, simulate func(engine.Job) (engine.Result, error)) (*paperOut, error) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	seen := map[string]engine.Job{}
	eng := engine.New(engine.Config{
		Workers:  workers,
		Obs:      reg,
		Simulate: simulate,
		Progress: func(p engine.Progress) {
			if p.Source == engine.SourceSimulated {
				mu.Lock()
				seen[p.Job.Key()] = p.Job
				mu.Unlock()
			}
		},
	})
	out := &paperOut{session: sim.NewSessionClient(paperOpt, client.NewLocalOn(eng)), tables: map[int]string{}}
	steal0 := stealSeconds()
	for _, fn := range sim.FigureNumbers() {
		start, cpu0 := time.Now(), cpuTime()
		tab, err := sim.Figure(fn, out.session)
		if err != nil {
			return nil, fmt.Errorf("figure %d: %w", fn, err)
		}
		out.tables[fn] = tab.String()
		out.figCPU = append(out.figCPU, cpuTime()-cpu0)
		out.wall += time.Since(start)
	}
	out.steal = stealSeconds() - steal0
	out.stats = eng.Stats()
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		return nil, err
	}
	out.expo = expo.Bytes()

	mu.Lock()
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		j := seen[k]
		r, err := eng.Result(j)
		if err != nil {
			return nil, fmt.Errorf("re-read %s/%s: %w", j.Bench, j.Config.Name, err)
		}
		out.jobs = append(out.jobs, j)
		out.results = append(out.results, r)
	}
	return out, nil
}

// resultsDigest is the SHA-256 over the manifest leaf hashes (which cover
// the canonical store-entry bytes) of results, in order.
func resultsDigest(jobs []engine.Job, results []engine.Result) (string, error) {
	h := sha256.New()
	for i, j := range jobs {
		leaf, err := engine.LeafHash(j, results[i])
		if err != nil {
			return "", err
		}
		fmt.Fprintln(h, leaf)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// compareGolden returns the figure numbers whose table differs from
// dir/fig<N>.txt, in order.
func compareGolden(tables map[int]string, dir string) ([]int, error) {
	var bad []int
	for _, fn := range sim.FigureNumbers() {
		want, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("fig%d.txt", fn)))
		if err != nil {
			return nil, err
		}
		if got, ok := tables[fn]; !ok || got != string(want) {
			bad = append(bad, fn)
		}
	}
	return bad, nil
}

// checkPaper applies the paper gates to one figure set and returns its
// results digest and whether every gate held: every table equals the
// committed golden one, and every distinct job was simulated once.
func checkPaper(rep *report, out *paperOut) (string, bool) {
	ok := true
	if bad, err := compareGolden(out.tables, goldenDir); err != nil {
		rep.fail("golden check: %v", err)
		ok = false
	} else if len(bad) > 0 {
		rep.fail("figures %v differ from %s", bad, goldenDir)
		ok = false
	}
	if int64(len(out.jobs)) != out.stats.Simulated {
		rep.fail("paper: %d distinct jobs but %d simulations", len(out.jobs), out.stats.Simulated)
		ok = false
	}
	d, err := resultsDigest(out.jobs, out.results)
	if err != nil {
		rep.fail("paper digest: %v", err)
		ok = false
	}
	return d, ok
}

// runPaper regenerates the figure set several times and reports the
// median over the sets.
func runPaper(cfg config, rep *report) error {
	var err error
	if rep.setup, err = paperSetup(); err != nil {
		return err
	}
	if cfg.traced {
		return tracePaper(cfg, rep)
	}
	sets := max(2, (cfg.seconds+paperSetSeconds/2)/paperSetSeconds)
	var cpus, firsts, walls, steals []float64
	var digest string
	var last *paperOut
	for k := 0; k < sets; k++ {
		out, err := paperPass(paperWorkers, nil)
		if err != nil {
			rep.request(false)
			rep.fail("figure set %d: %v", k, err)
			continue
		}
		d, ok := checkPaper(rep, out)
		if digest != "" && d != digest {
			rep.fail("figure set %d results digest %s differs from set 0's %s", k, d, digest)
			ok = false
		}
		rep.request(ok)
		digest, last = d, out
		var cpu time.Duration
		for _, c := range out.figCPU {
			cpu += c
		}
		cpus = append(cpus, cpu.Seconds())
		firsts = append(firsts, out.figCPU[0].Seconds())
		walls = append(walls, out.wall.Seconds())
		steals = append(steals, out.steal)
	}
	if last == nil {
		return fmt.Errorf("no figure set completed")
	}
	cpu := median(cpus)
	rep.set("cpu_s", cpu, "s")
	rep.set("points_per_cpu_s", float64(len(last.jobs))/cpu, "1/s")
	// One request per set: the whole figure set.
	rep.set("sweep_p50_ms", cpu*1e3, "ms")
	rep.set("sweep_p90_ms", quantile(cpus, 0.9)*1e3, "ms")
	rep.info["first_point_p50_ms"] = median(firsts) * 1e3
	rep.info["set_cpu_s"] = cpus
	rep.info["set_wall_s"] = walls
	rep.info["set_steal_s"] = steals
	rep.info["digest"] = digest
	rep.info["samples"] = len(cpus)
	rep.info["engine"] = last.stats
	rep.info["trace_cache"] = engine.TraceCacheStats()
	return nil
}

// tracePaper runs the untraced pass, then the traced pass, and reports
// the per-layer metrics and the tracing overhead.
func tracePaper(cfg config, rep *report) error {
	untraced, err := paperPass(0, nil)
	if err != nil {
		return err
	}
	du, ok := checkPaper(rep, untraced)
	rep.request(ok)
	tc := engine.TraceCacheStats()
	if err := engineMetrics(rep, untraced.stats, untraced.expo); err != nil {
		return err
	}
	traceCacheMetrics(rep, tc)

	// sim.tables_ms: every figure again on the warm session, which must
	// resolve without a single new simulation.
	start := time.Now()
	for _, fn := range sim.FigureNumbers() {
		if _, err := sim.Figure(fn, untraced.session); err != nil {
			return err
		}
	}
	rep.set("sim.tables_ms", float64(time.Since(start))/1e6, "ms")
	if s := untraced.session.EngineStats().Simulated; s != untraced.stats.Simulated {
		rep.fail("warm figure tables simulated %d new jobs", s-untraced.stats.Simulated)
	}

	tr, err := newTracer(trace.AllBenchmarks(), paperOpt.Warmup+paperOpt.Instructions)
	if err != nil {
		return err
	}
	traced, err := paperPass(0, tr.simulate)
	if err != nil {
		return err
	}
	dt, ok := checkPaper(rep, traced)
	if dt != du {
		rep.fail("traced results digest %s differs from untraced %s", dt, du)
		ok = false
	}
	rep.request(ok)
	tr.layerMetrics(rep)
	overheadMetrics(rep, untraced.wall, traced.wall)
	if err := kernelMetrics(rep, tr, true); err != nil {
		return err
	}
	zeroMetrics(rep, "engine.store_get_us", "engine.store_put_us", "client.us_per_point",
		"scenario.expand_us", "serve.submit_ms", "serve.first_line_ms", "serve.line_us",
		"serve.done_ms", "serve.http_p50_ms")
	rep.info["digest"] = du
	path, err := tr.writeSpans(fmt.Sprintf("paper-seed%d", cfg.seed))
	rep.info["spans"] = path
	return err
}
