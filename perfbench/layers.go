package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"distiq/internal/client"
	"distiq/internal/core"
	"distiq/internal/engine"
	"distiq/internal/pipeline"
	"distiq/internal/scenario"
	"distiq/internal/trace"
)

// kernelBench is the benchmark the steady-state pipeline kernels run on
// (the one ROADMAP's per-scheme ns/inst figures were taken on).
const kernelBench = "galgel"

// kernelConfigs are the three evaluated schemes whose steady-state cost
// pipeline.ns_per_inst.<name> reports.
var kernelConfigs = []core.Config{core.Baseline64(), core.IFDistr(), core.MBDistr()}

// kernelNsPerInst times a steady-state pipeline.Run of n instructions
// after a warmup, over a trace the tracer's cache already holds, and
// returns the median ns per committed instruction of reps runs.
func kernelNsPerInst(t *tracer, cfg core.Config, warmup, n uint64, reps int) (float64, error) {
	model, err := trace.ByName(kernelBench)
	if err != nil {
		return 0, err
	}
	var samples []float64
	for i := 0; i < reps; i++ {
		p, err := pipeline.New(engine.Job{Bench: kernelBench, Config: cfg}.PipelineConfig(), t.cache.Reader(model))
		if err != nil {
			return 0, err
		}
		p.Warmup(warmup)
		start := time.Now()
		p.Run(n)
		samples = append(samples, float64(time.Since(start))/float64(p.Committed()))
	}
	return median(samples), nil
}

// kernelMetrics reports pipeline.ns_per_inst.<scheme> for every kernel
// configuration, or zeros when the workload does not simulate.
func kernelMetrics(rep *report, t *tracer, active bool) error {
	for _, cfg := range kernelConfigs {
		v := 0.0
		if active {
			var err error
			if v, err = kernelNsPerInst(t, cfg, 20_000, 100_000, 3); err != nil {
				return err
			}
		}
		rep.set("pipeline.ns_per_inst."+cfg.Name, v, "ns")
	}
	return nil
}

// storeTimes collects the Get and Put times of every store a pass's
// servers use.
type storeTimes struct {
	mu        sync.Mutex
	get, put  []float64 // microseconds
	getMisses int
}

// storeSpanEvery keeps one span per that many store operations, so a warm
// pass of 10^5 Gets keeps a small span log; every operation is timed.
const storeSpanEvery = 64

// timedStore wraps a server's result store and times Get and Put.
type timedStore struct {
	engine.ResultStore
	t   *tracer
	rec *storeTimes
}

// record adds one operation's duration (µs) to samples and returns
// whether the operation gets a span.
func (s *timedStore) record(samples *[]float64, d time.Duration) bool {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	*samples = append(*samples, float64(d)/1e3)
	return (len(s.rec.get)+len(s.rec.put))%storeSpanEvery == 1
}

func (s *timedStore) Get(fp string, job engine.Job) (engine.Result, bool) {
	start := s.t.since()
	t := time.Now()
	r, ok := s.ResultStore.Get(fp, job)
	d := time.Since(t)
	if !ok {
		s.rec.mu.Lock()
		s.rec.getMisses++
		s.rec.mu.Unlock()
	} else if s.record(&s.rec.get, d) {
		s.t.addSpan(span{Name: "store.get", ID: fp[:12], Start: start, End: start + int64(d)})
	}
	return r, ok
}

func (s *timedStore) Put(fp string, job engine.Job, r engine.Result) error {
	start := s.t.since()
	t := time.Now()
	err := s.ResultStore.Put(fp, job, r)
	d := time.Since(t)
	if s.record(&s.rec.put, d) {
		s.t.addSpan(span{Name: "store.put", ID: fp[:12], Start: start, End: start + int64(d)})
	}
	return err
}

// serveTimes collects the HTTP-level timings of the sweep clients.
type serveTimes struct {
	mu                            sync.Mutex
	submitMs, firstLineMs, doneMs []float64
	lineGapsUs                    []float64
	captured                      []byte // the first complete stream body
}

// timingTransport wraps a client's transport: it times the POST that
// submits a sweep and timestamps every NDJSON line of the result stream
// as the client reads it.
type timingTransport struct {
	base http.RoundTripper
	rec  *serveTimes
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch {
	case req.Method == http.MethodPost:
		tt.rec.mu.Lock()
		tt.rec.submitMs = append(tt.rec.submitMs, float64(time.Since(start))/1e6)
		tt.rec.mu.Unlock()
	case strings.HasSuffix(req.URL.Path, "/stream"):
		resp.Body = &lineTimer{ReadCloser: resp.Body, start: start, rec: tt.rec}
	}
	return resp, nil
}

// lineTimer records the time each stream line arrived. The last line of a
// complete stream is the done event; the others are points.
type lineTimer struct {
	io.ReadCloser
	start time.Time
	rec   *serveTimes
	lines []time.Time
	body  bytes.Buffer
}

func (l *lineTimer) Read(p []byte) (int, error) {
	n, err := l.ReadCloser.Read(p)
	if n > 0 {
		now := time.Now()
		for _, b := range p[:n] {
			if b == '\n' {
				l.lines = append(l.lines, now)
			}
		}
		l.body.Write(p[:n])
	}
	return n, err
}

func (l *lineTimer) Close() error {
	err := l.ReadCloser.Close()
	if len(l.lines) < 2 || !bytes.Contains(l.body.Bytes(), []byte(`"done":true`)) {
		return err
	}
	last := len(l.lines) - 1
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	l.rec.firstLineMs = append(l.rec.firstLineMs, float64(l.lines[0].Sub(l.start))/1e6)
	for i := 1; i < last; i++ {
		l.rec.lineGapsUs = append(l.rec.lineGapsUs, float64(l.lines[i].Sub(l.lines[i-1]))/1e3)
	}
	l.rec.doneMs = append(l.rec.doneMs, float64(l.lines[last].Sub(l.lines[last-1]))/1e6)
	if l.rec.captured == nil {
		l.rec.captured = append([]byte(nil), l.body.Bytes()...)
	}
	return err
}

// replayTransport answers a Remote client's submit and stream requests
// from memory, so replaying a captured stream times the client alone.
type replayTransport struct{ body []byte }

func (r replayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body) //nolint:errcheck // in-memory body
		req.Body.Close()
	}
	status, body := http.StatusOK, r.body
	if req.Method == http.MethodPost {
		status, body = http.StatusAccepted, []byte(`{"id":"sw-replay","state":"queued"}`)
	}
	return &http.Response{
		StatusCode: status, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)), Request: req,
	}, nil
}

// clientUsPerPoint replays a captured stream of grid through a Remote
// client for about budget and returns the median µs per point.
func clientUsPerPoint(grid *scenario.Grid, body []byte, budget time.Duration) (float64, error) {
	rc := client.NewRemote("http://replay.invalid", client.WithHTTPClient(&http.Client{Transport: replayTransport{body}}))
	var samples []float64
	for start := time.Now(); time.Since(start) < budget || len(samples) < 5; {
		t := time.Now()
		res, err := rc.Sweep(context.Background(), grid).ResultSet()
		if err != nil {
			return 0, err
		}
		if len(res.Results) != grid.Size() {
			return 0, fmt.Errorf("replay delivered %d of %d points", len(res.Results), grid.Size())
		}
		samples = append(samples, float64(time.Since(t))/1e3/float64(grid.Size()))
	}
	return median(samples), nil
}

// expandUsPerSpec times scenario.ParseSpec plus Expand over every spec
// document for about budget and returns the median µs per spec.
func expandUsPerSpec(docs [][]byte, budget time.Duration) (float64, error) {
	var samples []float64
	for start := time.Now(); time.Since(start) < budget || len(samples) < 5; {
		t := time.Now()
		for _, d := range docs {
			s, err := scenario.ParseSpec(d)
			if err != nil {
				return 0, err
			}
			if _, err := s.Expand(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(t))/1e3/float64(len(docs)))
	}
	return median(samples), nil
}

// histQuantile returns the q-quantile of a Prometheus histogram family in
// a text exposition, summing the series whose labels contain match, with
// linear interpolation inside the bucket (as histogram_quantile does). It
// returns 0 when the family has no observations.
func histQuantile(expo []byte, family, match string, q float64) (float64, error) {
	type bucket struct{ le, count float64 }
	sums := map[float64]float64{}
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"_bucket{") || !strings.Contains(line, match) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndexByte(line, ' ')
		if i < 0 || j < 0 {
			return 0, fmt.Errorf("malformed bucket line %q", line)
		}
		leStr := line[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			return 0, fmt.Errorf("bucket bound %q: %w", leStr, err)
		}
		v, err := strconv.ParseFloat(line[j+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("bucket count in %q: %w", line, err)
		}
		sums[le] += v
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	var bs []bucket
	for le, c := range sums {
		bs = append(bs, bucket{le, c})
	}
	if len(bs) == 0 {
		return 0, fmt.Errorf("no %s buckets matching %q", family, match)
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	total := bs[len(bs)-1].count
	if total == 0 {
		return 0, nil
	}
	rank := q * total
	prevLe, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) { // report the highest finite bound
				return prevLe, nil
			}
			if b.count == prevCount {
				return b.le, nil
			}
			return prevLe + (b.le-prevLe)*(rank-prevCount)/(b.count-prevCount), nil
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe, nil
}
