package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distiq/internal/client"
	"distiq/internal/engine"
	"distiq/internal/scenario"
	"distiq/internal/serve"
	"distiq/internal/trace"
)

// The sweep-warm workload. Two closed-loop clients (the container has two
// CPUs) each submit a spec, stream its results to the done line and
// submit the next. A spec crosses one benchmark, the three evaluated
// schemes and two values of one machine axis: 6 points.
//
// The run goes in rounds. In a round each client submits each spec of
// its own pool once; every point was simulated into the store during
// set-up, and the pools do not overlap. Between rounds the server is
// replaced by a fresh one (a fresh engine, so an empty memory cache) over
// the same store, outside the timed span, so every point of every round
// is a store Get. The first sweep of a round is slower (the renewal's
// garbage is collected during it), so a round is long enough to keep
// those sweeps well below a tenth of the samples, and sweep_p90_ms off
// their mode. The pool specs are short: their length changes only what
// set-up spends simulating them, not what serving a stored result costs.
const (
	sweepClients = 2
	// warmRate sizes the fixed amount of work from -seconds, measured on
	// the 2-CPU reference container: each client makes about
	// seconds*warmRate sweeps. The work is fixed per seed and seconds, so
	// digests and counts repeat exactly.
	warmRate = 450.0
	// warmPool is how many distinct specs per client the run cycles
	// through, once per round; set-up simulates all their points into
	// the store, at warmWarmup + warmInsts instructions.
	warmPool   = 30
	warmWarmup = 2000
	warmInsts  = 8000
)

var sweepSchemes = []string{"IQ_64_64", "IF_distr", "MB_distr"}

// machineAxes are the machine variants a spec may sweep, four values each
// and none equal to the Table 1 value (an override restating the default
// is the same job as no override).
var machineAxes = []struct {
	vals [4]int
	set  func(*scenario.Spec, int)
}{
	{[4]int{32, 64, 128, 512}, func(s *scenario.Spec, v int) { s.WithROB(v) }},
	{[4]int{2, 3, 4, 6}, func(s *scenario.Spec, v int) { s.WithIssueWidth(v) }},
	{[4]int{6, 8, 14, 18}, func(s *scenario.Spec, v int) { s.WithL2Latency(v) }},
	{[4]int{60, 80, 150, 200}, func(s *scenario.Spec, v int) { s.WithMemLatency(v) }},
}

// poolSpecs draws the run's sweepClients*warmPool distinct specs from the
// seed: (benchmark, axis) pairs in shuffled order, each with two of the
// axis's values.
func poolSpecs(seed uint64) []*scenario.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	type pair struct{ bench, axis int }
	benches := trace.AllBenchmarks()
	var pairs []pair
	for b := range benches {
		for a := range machineAxes {
			pairs = append(pairs, pair{b, a})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	specs := make([]*scenario.Spec, sweepClients*warmPool)
	for k := range specs {
		ax := machineAxes[pairs[k].axis]
		v := rng.Perm(len(ax.vals))
		s := scenario.New(fmt.Sprintf("perfbench-s%d-k%d", seed, k)).
			WithBenchmarks(benches[pairs[k].bench]).WithNamed(sweepSchemes...).
			WithLengths(warmWarmup, warmInsts)
		ax.set(s, ax.vals[v[0]])
		ax.set(s, ax.vals[v[1]])
		specs[k] = s
	}
	return specs
}

// sweepGrids returns each client's grids for a run, in submission order:
// client c cycles through its warmPool pool specs, a whole number of
// rounds. Each spec is expanded once.
func sweepGrids(cfg config) ([][]*scenario.Grid, error) {
	pool := poolSpecs(cfg.seed)
	n := warmPool * max(2, int(float64(cfg.seconds)*warmRate/warmPool+0.5))
	grids := make([][]*scenario.Grid, sweepClients)
	for c := range grids {
		expanded := make([]*scenario.Grid, warmPool)
		for j := range expanded {
			g, err := pool[c*warmPool+j].Expand()
			if err != nil {
				return nil, fmt.Errorf("spec %s: %w", pool[c*warmPool+j].Name, err)
			}
			expanded[j] = g
		}
		for i := 0; i < n; i++ {
			grids[c] = append(grids[c], expanded[i%warmPool])
		}
	}
	return grids, nil
}

// uniqueJobs returns the distinct jobs of grids, in first-seen order.
func uniqueJobs(grids [][]*scenario.Grid) []engine.Job {
	seen := map[string]bool{}
	var jobs []engine.Job
	for _, gs := range grids {
		for _, g := range gs {
			for _, j := range g.Jobs() {
				if k := j.Key(); !seen[k] {
					seen[k] = true
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs
}

// sweepEnv is one in-process distiqd: a fresh temp store and a loopback
// listener whose requests go to the current server. renew replaces the
// server between rounds.
type sweepEnv struct {
	dir      string
	newStore func() engine.ResultStore
	cur      atomic.Pointer[serve.Server]
	hs       *http.Server
	base     string
	served   chan error
	// Counters summed over the servers retired so far, and the last
	// server's metrics exposition (scraped when the environment closes).
	stats   engine.Stats
	expo    []byte
	servers int
	store   *storeTimes // set on the traced pass
}

func (e *sweepEnv) ServeHTTP(w http.ResponseWriter, r *http.Request) { e.cur.Load().ServeHTTP(w, r) }

// startSweepEnv performs the workload's set-up: warm the shared trace
// cache for the run's benchmarks, create a temp store, simulate every
// point into it, and start the server. t is set on the traced pass,
// whose stores (the populating one included) are timed through it.
func startSweepEnv(grids [][]*scenario.Grid, t *tracer) (*sweepEnv, error) {
	if err := engine.WarmTraces(gridBenches(grids), gridLength(grids)); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	env := &sweepEnv{dir: dir, served: make(chan error, 1)}
	env.newStore = func() engine.ResultStore { return engine.NewStore(dir) }
	if t != nil {
		env.store = &storeTimes{}
		env.newStore = func() engine.ResultStore {
			return &timedStore{ResultStore: engine.NewStore(dir), t: t, rec: env.store}
		}
	}
	if err := populate(env.newStore(), grids); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env.startServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.cur.Load().Close()
		os.RemoveAll(dir)
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env, ReadHeaderTimeout: 10 * time.Second}
	go func() { env.served <- env.hs.Serve(ln) }()
	resp, err := http.Get(env.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *sweepEnv) startServer() {
	e.cur.Store(serve.New(serve.Config{Store: e.newStore()}))
	e.servers++
}

// renew retires the current server, keeping its counters, and starts a
// fresh one over the same store. It must be called with no request in
// flight.
func (e *sweepEnv) renew() error {
	if err := e.retire(); err != nil {
		return err
	}
	e.startServer()
	return nil
}

// retire folds the current server's counters into the totals, then
// drains and closes it (closing its store).
func (e *sweepEnv) retire() error {
	srv := e.cur.Load()
	addStats(&e.stats, srv.Stats())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	return srv.Close()
}

// close stops the listener, retires the last server and removes the temp
// store; it returns once the serving goroutine has ended.
func (e *sweepEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	var serr error
	if e.expo, serr = scrape(e.cur.Load()); err == nil {
		err = serr
	}
	if rerr := e.retire(); err == nil {
		err = rerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// scrape reads a server's metrics exposition in process.
func scrape(srv *serve.Server) ([]byte, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

func addStats(dst *engine.Stats, s engine.Stats) {
	dst.Requested += s.Requested
	dst.Simulated += s.Simulated
	dst.MemoryHits += s.MemoryHits
	dst.DiskHits += s.DiskHits
	dst.Shared += s.Shared
	dst.Batched += s.Batched
	dst.Canceled += s.Canceled
	dst.DiskErrors += s.DiskErrors
}

// gridLength returns the longest warmup + measured length of any grid.
func gridLength(grids [][]*scenario.Grid) uint64 {
	var n uint64
	for _, gs := range grids {
		for _, g := range gs {
			opt := g.Spec.Opt()
			n = max(n, opt.Warmup+opt.Instructions)
		}
	}
	return n
}

func gridBenches(grids [][]*scenario.Grid) []string {
	seen := map[string]bool{}
	var out []string
	for _, j := range uniqueJobs(grids) {
		if !seen[j.Bench] {
			seen[j.Bench] = true
			out = append(out, j.Bench)
		}
	}
	sort.Strings(out)
	return out
}

// populate simulates every point of grids into st and closes it.
func populate(st engine.ResultStore, grids [][]*scenario.Grid) error {
	eng := engine.New(engine.Config{Store: st})
	if _, err := eng.ResultAll(uniqueJobs(grids)); err != nil {
		return err
	}
	if n := eng.Stats().DiskErrors; n > 0 {
		return fmt.Errorf("populate: %d store writes failed", n)
	}
	return st.Close()
}

// sweepSample is one client request: a sweep from POST to the done line.
type sweepSample struct {
	start          time.Time
	latency, first time.Duration
	points         int
	root           string
	err            error
}

// checkSweep is the per-sweep correctness gate: one result per grid point
// and a done-line manifest that is internally consistent and whose Merkle
// root equals one rebuilt from the streamed results.
func checkSweep(g *scenario.Grid, results []engine.Result, m *engine.Manifest) error {
	if len(results) != g.Size() {
		return fmt.Errorf("%d results for %d points", len(results), g.Size())
	}
	if m == nil {
		return fmt.Errorf("no manifest on the done line")
	}
	if err := m.Check(); err != nil {
		return err
	}
	rebuilt, err := engine.BuildManifest(g.Spec.Name, g.Jobs(), results)
	if err != nil {
		return err
	}
	if rebuilt.Root != m.Root {
		return fmt.Errorf("merkle root %s, rebuilt from the streamed results %s", m.Root, rebuilt.Root)
	}
	return nil
}

// oneSweep submits g through rc and consumes its stream.
func oneSweep(rc *client.Remote, g *scenario.Grid) sweepSample {
	s := sweepSample{start: time.Now()}
	st := rc.Sweep(context.Background(), g)
	results := make([]engine.Result, 0, g.Size())
	for st.Next() {
		if len(results) == 0 {
			s.first = time.Since(s.start)
		}
		results = append(results, st.Update().Result)
	}
	s.latency = time.Since(s.start)
	s.err = st.Err()
	if s.err == nil {
		s.err = checkSweep(g, results, st.Manifest())
	}
	if s.err == nil {
		s.root = st.Manifest().Root
	}
	s.points = len(results)
	return s
}

// runClients runs the closed loop over env: one goroutine per client,
// each with its own single-connection transport, submitting its grids in
// order, warmPool at a time. Between rounds the clients wait for each
// other and the server is renewed. It returns the samples and the
// rounds' summed wall time and process CPU time.
func runClients(env *sweepEnv, grids [][]*scenario.Grid, wrap func(http.RoundTripper) http.RoundTripper) ([][]sweepSample, time.Duration, time.Duration, error) {
	n := len(grids[0])
	out := make([][]sweepSample, len(grids))
	clients := make([]*client.Remote, len(grids))
	for c := range grids {
		tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
		defer tr.CloseIdleConnections()
		var rt http.RoundTripper = tr
		if wrap != nil {
			rt = wrap(tr)
		}
		clients[c] = client.NewRemote(env.base, client.WithHTTPClient(&http.Client{Transport: rt}))
	}
	var wall, cpu time.Duration
	for lo := 0; lo < n; lo += warmPool {
		hi := min(n, lo+warmPool)
		if lo > 0 {
			if err := env.renew(); err != nil {
				return nil, 0, 0, err
			}
		}
		var wg sync.WaitGroup
		start, cpu0 := time.Now(), cpuTime()
		for c := range grids {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, g := range grids[c][lo:hi] {
					out[c] = append(out[c], oneSweep(clients[c], g))
				}
			}(c)
		}
		wg.Wait()
		wall += time.Since(start)
		cpu += cpuTime() - cpu0
	}
	return out, wall, cpu, nil
}

// sweepPass is one complete closed-loop run over a fresh environment.
type sweepPass struct {
	samples   [][]sweepSample
	wall, cpu time.Duration
	digest    string
	stats     engine.Stats // summed over the pass's servers
	expo      []byte       // the last server's metrics exposition
	tc        trace.CacheStats
	servers   int
}

// runSweepPass runs the clients over env, closes env and applies the
// gates; every sweep is one request of the report.
func runSweepPass(rep *report, grids [][]*scenario.Grid, env *sweepEnv, wrap func(http.RoundTripper) http.RoundTripper) (*sweepPass, error) {
	samples, wall, cpu, err := runClients(env, grids, wrap)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	p := &sweepPass{samples: samples, wall: wall, cpu: cpu, stats: env.stats, expo: env.expo,
		tc: engine.TraceCacheStats(), servers: env.servers}
	h := sha256.New()
	for c, ss := range p.samples {
		for i, s := range ss {
			rep.request(s.err == nil)
			if s.err != nil {
				rep.fail("client %d sweep %d (%s): %v", c, i, grids[c][i].Spec.Name, s.err)
			}
			fmt.Fprintln(h, s.root)
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	if p.stats.Simulated != 0 || p.stats.DiskHits != p.stats.Requested {
		rep.fail("sweep-warm: %d of %d points came from the store (%d simulated); every point should",
			p.stats.DiskHits, p.stats.Requested, p.stats.Simulated)
	}
	return p, nil
}

func runSweep(cfg config, rep *report) error {
	grids, err := sweepGrids(cfg)
	if err != nil {
		return err
	}
	if cfg.traced {
		return traceSweep(cfg, rep, grids)
	}
	cpu0 := cpuTime()
	env, err := startSweepEnv(grids, nil)
	if err != nil {
		return err
	}
	rep.setup = cpuTime() - cpu0
	p, err := runSweepPass(rep, grids, env, nil)
	if err != nil {
		return err
	}
	var lat, first []float64
	var points int
	for _, ss := range p.samples {
		for _, s := range ss {
			lat = append(lat, s.latency.Seconds()*1e3)
			first = append(first, s.first.Seconds()*1e3)
			points += s.points
		}
	}
	p90 := quantile(lat, 0.9)
	beyond := 0
	for _, v := range lat {
		if v > p90 {
			beyond++
		}
	}
	cpu := p.cpu.Seconds()
	rep.set("cpu_s", cpu, "s")
	rep.set("points_per_cpu_s", float64(points)/cpu, "1/s")
	rep.set("sweep_p50_ms", median(lat), "ms")
	rep.set("sweep_p90_ms", p90, "ms")
	rep.info["first_point_p50_ms"] = median(first)
	rep.info["wall_s"] = p.wall.Seconds()
	rep.info["digest"] = p.digest
	rep.info["samples"] = len(lat)
	rep.info["samples_beyond_p90"] = beyond
	rep.info["servers"] = p.servers
	rep.info["engine"] = p.stats
	rep.info["trace_cache"] = p.tc
	if beyond < 10 {
		rep.fail("only %d sweeps lie beyond p90; the run is too short for it", beyond)
	}
	return nil
}

// traceSweep runs the untraced pass, then the traced pass over a fresh
// server and store, and reports the per-layer metrics.
func traceSweep(cfg config, rep *report, grids [][]*scenario.Grid) error {
	env, err := startSweepEnv(grids, nil)
	if err != nil {
		return err
	}
	untraced, err := runSweepPass(rep, grids, env, nil)
	if err != nil {
		return err
	}
	if err := engineMetrics(rep, untraced.stats, untraced.expo); err != nil {
		return err
	}
	traceCacheMetrics(rep, untraced.tc)
	httpP50, err := histQuantile(untraced.expo, "distiq_http_request_duration_seconds", `route="/v1/sweeps/{id}/stream"`, 0.5)
	if err != nil {
		return err
	}
	rep.set("serve.http_p50_ms", httpP50*1e3, "ms")

	tr, err := newTracer(gridBenches(grids), gridLength(grids))
	if err != nil {
		return err
	}
	env, err = startSweepEnv(grids, tr)
	if err != nil {
		return err
	}
	times := &serveTimes{}
	wrap := func(rt http.RoundTripper) http.RoundTripper { return &timingTransport{base: rt, rec: times} }
	traced, err := runSweepPass(rep, grids, env, wrap)
	if err != nil {
		return err
	}
	if traced.digest != untraced.digest {
		rep.fail("traced results digest %s differs from untraced %s", traced.digest, untraced.digest)
	}
	for c, ss := range traced.samples {
		for i, s := range ss {
			begin := int64(s.start.Sub(tr.t0))
			tr.addSpan(span{Name: "sweep", ID: grids[c][i].Spec.Name, Parent: fmt.Sprintf("client-%d", c),
				Start: begin, End: begin + int64(s.latency),
				Attrs: map[string]int64{"first_ns": int64(s.first), "points": int64(s.points)}})
		}
	}
	tr.layerMetrics(rep)
	overheadMetrics(rep, untraced.wall, traced.wall)
	if err := kernelMetrics(rep, tr, false); err != nil {
		return err
	}

	st := env.store
	st.mu.Lock()
	rep.set("engine.store_get_us", median(st.get), "us")
	rep.set("engine.store_put_us", median(st.put), "us")
	rep.info["store_ops"] = map[string]int{"get_hits": len(st.get), "get_misses": st.getMisses, "put": len(st.put)}
	st.mu.Unlock()

	times.mu.Lock()
	rep.set("serve.submit_ms", median(times.submitMs), "ms")
	rep.set("serve.first_line_ms", median(times.firstLineMs), "ms")
	rep.set("serve.line_us", median(times.lineGapsUs), "us")
	rep.set("serve.done_ms", median(times.doneMs), "ms")
	body := times.captured
	times.mu.Unlock()
	if body == nil {
		return fmt.Errorf("no complete stream was captured")
	}
	perPoint, err := clientUsPerPoint(grids[0][0], body, 300*time.Millisecond)
	if err != nil {
		return fmt.Errorf("client replay: %w", err)
	}
	rep.set("client.us_per_point", perPoint, "us")

	var docs [][]byte
	seen := map[string]bool{}
	for _, gs := range grids {
		for _, g := range gs {
			if seen[g.Spec.Name] {
				continue
			}
			seen[g.Spec.Name] = true
			d, err := g.Spec.JSON()
			if err != nil {
				return err
			}
			docs = append(docs, d)
		}
	}
	expand, err := expandUsPerSpec(docs, 300*time.Millisecond)
	if err != nil {
		return err
	}
	rep.set("scenario.expand_us", expand, "us")
	zeroMetrics(rep, "sim.tables_ms")
	rep.info["digest"] = untraced.digest
	path, err := tr.writeSpans(fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	rep.info["spans"] = path
	return err
}
