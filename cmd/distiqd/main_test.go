package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distiq/internal/client"
	"distiq/internal/cliutil"
	"distiq/internal/engine"
	"distiq/internal/serve"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing server logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSetupRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-parallel", "-1"},
		{"-max-queued", "0"},
		{"-max-queued", "-5"},
		{"-cache-dir", "/nonexistent-parent-dir/sub/cache"},
	}
	for _, argv := range cases {
		var errw bytes.Buffer
		if _, _, _, err := setup(argv, &errw); err == nil {
			t.Errorf("%v accepted", argv)
		} else if cliutil.ExitCode(err) != 2 {
			t.Errorf("%v: exit code %d, want 2 (%v)", argv, cliutil.ExitCode(err), err)
		}
	}
	var errw bytes.Buffer
	if _, _, _, err := setup([]string{"-h"}, &errw); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
}

// TestSetupServesSweeps drives a sweep end-to-end through the server the
// command actually assembles, so the flag wiring (addr, parallel, quiet)
// is covered, not just the serve package.
func TestSetupServesSweeps(t *testing.T) {
	var errw bytes.Buffer
	srv, _, addr, err := setup([]string{"-addr", ":0", "-parallel", "2", "-quiet"}, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":0" {
		t.Fatalf("addr = %q", addr)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := `{"benchmarks": ["swim"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 500, "instructions": 1000}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.State != "done" && st.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/status")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != "done" || st.Done != 1 {
		t.Fatalf("sweep = %+v", st)
	}
	if errw.Len() != 0 {
		t.Fatalf("-quiet still logged: %s", errw.String())
	}

	// Without -quiet the lifecycle log lands on stderr. The buffer needs
	// a lock: sweep goroutines log concurrently with the test's polling.
	loud := &syncBuffer{}
	srv2, _, _, err := setup(nil, loud)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if _, err := http.Post(ts2.URL+"/v1/sweeps", "application/json", strings.NewReader(spec)); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(loud.String(), "accepted") {
		if time.Now().After(deadline) {
			t.Fatalf("no lifecycle log; stderr: %q", loud.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer(":0", h, defaultTimeouts)
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("timeouts unset: header %v read %v idle %v", s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none (streams stay open for a whole sweep)", s.WriteTimeout)
	}
}

// TestSlowHeadersDisconnected opens a connection that never finishes its
// request headers: the server must drop it within the header bound.
func TestSlowHeadersDisconnected(t *testing.T) {
	const bound = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newHTTPServer("", http.NewServeMux(), serverTimeouts{readHeader: bound, read: time.Minute, idle: time.Minute})
	go s.Serve(ln) //nolint:errcheck // ends with Close below
	defer s.Close()

	// The server's header deadline starts when it accepts, which may
	// precede Dial's return, so the clock starts before Dial.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: distiqd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * bound)) //nolint:errcheck // a failed Read reports it
	n, err := conn.Read(make([]byte, 512))
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v", elapsed)
	}
	if err == nil {
		t.Fatalf("server answered %d bytes to an unfinished request", n)
	}
	if elapsed < bound {
		t.Fatalf("dropped after %v, before the %v bound", elapsed, bound)
	}
}

// TestStreamOutlivesReadBound streams a sweep that runs for several read
// bounds: the stream must still end with its done line. A read deadline
// still armed while the handler runs would make the server cancel the
// request context, and the stream would end without it.
func TestStreamOutlivesReadBound(t *testing.T) {
	const bound = 100 * time.Millisecond
	srv := serve.New(serve.Config{
		Parallel: 1,
		Simulate: func(engine.Job) (engine.Result, error) {
			time.Sleep(2 * bound)
			return engine.Result{}, nil
		},
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newHTTPServer("", srv, serverTimeouts{readHeader: bound, read: bound, idle: time.Minute})
	go s.Serve(ln) //nolint:errcheck // ends with Close below
	defer s.Close()
	base := "http://" + ln.Addr().String()

	spec := `{"benchmarks": ["swim", "gzip"], "schemes": [{"scheme": "MB_distr"}],
		"warmup": 500, "instructions": 1000}`
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}

	start := time.Now()
	resp, err = http.Get(base + "/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last client.StreamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev client.StreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream after %v: %v", time.Since(start), err)
		}
		last = ev
	}
	if elapsed := time.Since(start); elapsed < 2*bound {
		t.Fatalf("stream ended after %v, within twice the %v read bound", elapsed, bound)
	}
	if !last.Done || last.Points != 2 {
		t.Fatalf("stream ended with %+v, want the done line after 2 points", last)
	}
}
