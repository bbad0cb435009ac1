package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
)

// env is one ready-to-serve set-up: the system, its HTTP server on a
// loopback port, and (cold, ingest) the durable store behind the relation.
type env struct {
	sys  *repro.System
	dur  *repro.DurableStore
	dir  string // store directory removed on close; "" keeps it
	hs   *http.Server
	done chan struct{}
	url  string
	mw   *middleware
}

// serveConfig is catserve's system configuration (tree cache 256 entries /
// 64 MiB, shards = GOMAXPROCS, no correlations) over the demo workload log.
func serveConfig(dur *repro.DurableStore, cached bool) repro.Config {
	cfg := repro.Config{
		WorkloadSQL: repro.DemoWorkloadSQL(logQueries, logSeed),
		Intervals:   repro.DemoIntervals(),
		Durable:     dur,
	}
	if cached {
		cfg.TreeCacheEntries, cfg.TreeCacheBytes = cacheEntries, cacheBytes
	}
	return cfg
}

// newServer wraps sys in catserve's server configuration: render bounds
// 6 / 200, admission control off, warmer off.
func newServer(sys *repro.System, learn bool) (*server.Server, error) {
	return server.New(server.Config{System: sys, MaxDepth: maxDepth, MaxChildren: maxChildren, Learn: learn})
}

// listen serves sys over HTTP on a loopback port.
func listen(sys *repro.System, dur *repro.DurableStore, learn bool) (*env, error) {
	srv, err := newServer(sys, learn)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{sys: sys, dur: dur, mw: &middleware{next: srv.Handler()}, done: make(chan struct{})}
	e.hs = &http.Server{Handler: e.mw, ReadHeaderTimeout: 5 * time.Second}
	e.url = "http://" + ln.Addr().String()
	go func() {
		defer close(e.done)
		// Serve returns http.ErrServerClosed once close shuts it down.
		_ = e.hs.Serve(ln)
	}()
	return e, nil
}

// close stops the server, waits for it, closes the store and removes a
// scratch store directory.
func (e *env) close() error {
	err := e.hs.Close()
	<-e.done
	if e.dur != nil {
		if cerr := e.dur.Close(); err == nil {
			err = cerr
		}
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// Request headers that carry the traced op id and parent span id to the
// server-side middleware.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// middleware wraps the server's Handler(). With a recorder installed it
// records a server.handle span per request and counts response bytes;
// without one it adds a single atomic load.
type middleware struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := m.rec.Load()
	if rec == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	s := rec.start("server.handle", 0, 0)
	m.next.ServeHTTP(cw, r)
	s.End = rec.now()
	s.Op, _ = strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	s.Parent, _ = strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	s.Bytes = cw.n
	rec.add(s)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// client is one closed-loop HTTP client with a single connection.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer // the last response body
}

func newClient(baseURL string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		url: baseURL + "/v1/query",
	}
}

// post sends one /v1/query request and reads the whole body into c.buf.
// op > 0 tags the request for the traced middleware.
func (c *client) post(body []byte, op, span int64) (status int, hit bool, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op > 0 {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, false, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header.Get("X-Cache") == "hit", err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// prime requests every body once through c, failing on any non-200.
func prime(c *client, bodies [][]byte) error {
	for i, b := range bodies {
		status, _, err := c.post(b, 0, 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, c.buf.Bytes())
		}
		if err != nil {
			return fmt.Errorf("priming query %d: %w", i, err)
		}
	}
	return nil
}
