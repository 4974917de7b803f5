package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/scenario"
	"distiq/internal/sim"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricNamesMatchBenchmarkJSON checks every metric the benchmark can
// print (checkMetricSet fails a run that prints any other) against
// BENCHMARK.json: same names, same units, well-formed names.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, tc := range []struct {
		kind     string
		printed  map[string]string
		declared []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEndUnits, b.EndToEnd},
		{"per_layer", layerUnits, b.PerLayer},
	} {
		declared := map[string]string{}
		for _, m := range tc.declared {
			declared[m.Name] = m.Unit
		}
		for name, unit := range tc.printed {
			if !valid.MatchString(name) {
				t.Errorf("%s metric %q is not a valid name", tc.kind, name)
			}
			if got, ok := declared[name]; !ok {
				t.Errorf("%s metric %q is missing from BENCHMARK.json", tc.kind, name)
			} else if got != unit {
				t.Errorf("%s metric %q has unit %q in BENCHMARK.json, printed as %q", tc.kind, name, got, unit)
			}
		}
		for name := range declared {
			if _, ok := tc.printed[name]; !ok {
				t.Errorf("BENCHMARK.json %s metric %q is never printed", tc.kind, name)
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, runners for %d", names, len(workloads))
	}
}

// TestCheckMetricSetRejectsStrays pins that a run printing an undeclared
// metric, or missing one, fails.
func TestCheckMetricSetRejectsStrays(t *testing.T) {
	rep := newReport()
	for n, u := range endToEndUnits {
		rep.set(n, 1, u)
	}
	checkMetricSet(rep, false)
	if len(rep.failures) != 0 {
		t.Fatalf("complete set failed: %v", rep.failures)
	}
	rep.set("wall s", 1, "s")
	delete(rep.metrics, "setup_s")
	checkMetricSet(rep, false)
	if len(rep.failures) != 1 || !strings.Contains(rep.failures[0], "setup_s") || !strings.Contains(rep.failures[0], "wall s") {
		t.Fatalf("failures %v, want one naming setup_s and wall s", rep.failures)
	}
}

func goldenTables(t *testing.T) map[int]string {
	t.Helper()
	tables := map[int]string{}
	for _, fn := range sim.FigureNumbers() {
		data, err := os.ReadFile(filepath.Join("..", goldenDir, fmt.Sprintf("fig%d.txt", fn)))
		if err != nil {
			t.Fatal(err)
		}
		tables[fn] = string(data)
	}
	return tables
}

// TestGateFailsOnCorruptedTable flips one digit of one figure table.
func TestGateFailsOnCorruptedTable(t *testing.T) {
	dir := filepath.Join("..", goldenDir)
	tables := goldenTables(t)
	if bad, err := compareGolden(tables, dir); err != nil || len(bad) != 0 {
		t.Fatalf("golden tables against themselves: %v, %v", bad, err)
	}
	i := strings.IndexAny(tables[8], "0123456789")
	b := []byte(tables[8])
	b[i] = '0' + (b[i]-'0'+1)%10
	tables[8] = string(b)
	if bad, err := compareGolden(tables, dir); err != nil || !reflect.DeepEqual(bad, []int{8}) {
		t.Fatalf("corrupted figure 8: mismatches %v, %v", bad, err)
	}

	t.Chdir("..") // checkPaper reads the goldens from the repository root
	rep := newReport()
	if _, ok := checkPaper(rep, &paperOut{tables: tables}); ok {
		t.Fatal("corrupted paper tables passed")
	}
	if len(rep.failures) == 0 || !strings.Contains(rep.failures[0], "figures [8] differ") {
		t.Fatalf("corrupted paper tables: failures %v", rep.failures)
	}
}

// TestFailedRequestsCountInOkFrac pins that attempted and failed count
// the same unit and that a failed request is a failed run.
func TestFailedRequestsCountInOkFrac(t *testing.T) {
	rep := newReport()
	rep.request(true)
	rep.request(false)
	rep.request(true)
	rep.request(true)
	if rep.attempted != 4 || rep.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1", rep.attempted, rep.failed)
	}
}

// smallSweep simulates a 3-point grid at short lengths.
func smallSweep(t *testing.T) (*scenario.Grid, []engine.Result) {
	t.Helper()
	g, err := scenario.New("gate").WithBenchmarks("gzip").WithNamed(sweepSchemes...).
		WithLengths(1000, 3000).Expand()
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(engine.Config{}).ResultAll(g.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	return g, results
}

// TestGateFailsOnTamperedManifest tampers with the done-line manifest and
// with a streamed result.
func TestGateFailsOnTamperedManifest(t *testing.T) {
	g, results := smallSweep(t)
	good, err := engine.BuildManifest(g.Spec.Name, g.Jobs(), results)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(g, results, good); err != nil {
		t.Fatalf("untampered sweep: %v", err)
	}
	clone := func() *engine.Manifest {
		m := *good
		m.Leaves = append([]engine.ManifestLeaf(nil), good.Leaves...)
		return &m
	}
	flip := func(h string) string {
		if h[0] == '0' {
			return "1" + h[1:]
		}
		return "0" + h[1:]
	}
	leaf := clone()
	leaf.Leaves[1].Hash = flip(leaf.Leaves[1].Hash)
	root := clone()
	root.Root = flip(root.Root)
	changed := append([]engine.Result(nil), results...)
	changed[2].Cycles++
	for name, tc := range map[string]struct {
		results []engine.Result
		m       *engine.Manifest
	}{
		"leaf hash":      {results, leaf},
		"root":           {results, root},
		"missing":        {results, nil},
		"result changed": {changed, good},
		"point missing":  {results[:2], good},
	} {
		if err := checkSweep(g, tc.results, tc.m); err == nil {
			t.Errorf("%s: tampered sweep passed the gate", name)
		}
	}
}

// TestTracedSimulateMatchesEngine pins that the sampling wrappers leave
// every statistic, and the stored entry bytes, bit-identical.
func TestTracedSimulateMatchesEngine(t *testing.T) {
	const warmup, n = 3000, 12000
	benches := []string{"gzip", "swim"}
	tr, err := newTracer(benches, warmup+n+20_000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr(), core.LatFIFOCfg(8, 8, 8, 16)}
	for _, b := range benches {
		for _, cfg := range cfgs {
			j := engine.Job{Bench: b, Config: cfg, Opt: engine.Options{Warmup: warmup, Instructions: n},
				Machine: &engine.Machine{ROBSize: 128}}
			want, err := engine.SimulateUncached(j)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.simulate(j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("%s/%s: pipeline.Stats differ:\n got %+v\nwant %+v", b, cfg.Name, got.Stats, want.Stats)
			}
			lg, err1 := engine.LeafHash(j, got)
			lw, err2 := engine.LeafHash(j, want)
			if err1 != nil || err2 != nil || lg != lw {
				t.Errorf("%s/%s: entry hashes %s vs %s (%v, %v)", b, cfg.Name, lg, lw, err1, err2)
			}
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.total.stepCycles == 0 || tr.total.innerCycles == 0 || tr.total.nextCalls == 0 {
		t.Fatalf("no cycles were sampled: %+v", tr.total)
	}
	for k, name := range kindNames {
		if tr.total.calls[opIssue][k] == 0 {
			t.Errorf("no %s Issue call was timed", name)
		}
	}
}

// TestPoolSpecs pins the sweep-warm pools: the same seed makes the same
// specs, another seed other ones, and every spec is 6 points of its own.
func TestPoolSpecs(t *testing.T) {
	keysOf := func(seed uint64) []string {
		grids, err := sweepGrids(config{seed: seed, seconds: 1})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for c, gs := range grids {
			if len(gs)%warmPool != 0 {
				t.Errorf("client %d: %d sweeps, not whole rounds of %d", c, len(gs), warmPool)
			}
			for i, g := range gs[:warmPool] {
				if g.Size() != 6 {
					t.Errorf("client %d spec %d: %d points, want 6", c, i, g.Size())
				}
				for _, j := range g.Jobs() {
					if seen[j.Key()] {
						t.Errorf("client %d spec %d: point %s is in another spec", c, i, j.Key())
					}
					seen[j.Key()] = true
				}
			}
		}
		var keys []string
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	a, b := keysOf(1), keysOf(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 makes different points on two calls")
	}
	if reflect.DeepEqual(a, keysOf(2)) {
		t.Fatal("seeds 1 and 2 make the same points")
	}
}

func TestHistQuantile(t *testing.T) {
	expo := []byte(`# TYPE h histogram
h_bucket{route="/a",le="1"} 2
h_bucket{route="/a",le="2"} 6
h_bucket{route="/a",le="+Inf"} 8
h_bucket{route="/b",le="1"} 100
h_bucket{route="/b",le="2"} 100
h_bucket{route="/b",le="+Inf"} 100
h_sum{route="/a"} 9
h_count{route="/a"} 8
`)
	for _, tc := range []struct {
		match string
		q     float64
		want  float64
	}{
		{`route="/a"`, 0.5, 1.5},  // rank 4 of 8: halfway through (1,2]
		{`route="/a"`, 0.25, 1},   // rank 2: top of the first bucket
		{`route="/a"`, 0.9, 2},    // in +Inf: the highest finite bound
		{`route="/b"`, 0.5, 0.5},  // rank 50 of 100 in [0,1]
		{``, 0.5, 1 * 54.0 / 102}, // both series summed: rank 54 of 108 in [0,1]
	} {
		got, err := histQuantile(expo, "h", tc.match, tc.q)
		if err != nil || got != tc.want {
			t.Errorf("q%.2f of %q = %v, %v; want %v", tc.q, tc.match, got, err, tc.want)
		}
	}
}

// TestSweepTracedEndToEnd runs sweep-warm's traced invocation at the
// smallest size: two in-process servers per pass, concurrent clients,
// the timed store and the timing transport.
func TestSweepTracedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 360 jobs")
	}
	workDir = t.TempDir()
	rep := newReport()
	if err := runSweep(config{workload: "sweep-warm", seed: 7, seconds: 1, traced: true}, rep); err != nil {
		t.Fatal(err)
	}
	checkMetricSet(rep, true)
	if len(rep.failures) > 0 {
		t.Fatal(rep.failures)
	}
	if sims := rep.metrics["engine.simulated"].Value; sims != 0 {
		t.Errorf("%v simulations, want none", sims)
	}
	// The server is renewed every round, so every requested point is a
	// store Get; set-up's Puts are timed too.
	req, disk := rep.metrics["engine.requested"].Value, rep.metrics["engine.disk_hits"].Value
	ops := rep.info["store_ops"].(map[string]int)
	if req == 0 || disk != req || ops["get_hits"] != int(req) || ops["put"] != 2*warmPool*6 {
		t.Errorf("%v of %v points from the store, store ops %v", disk, req, ops)
	}
}
