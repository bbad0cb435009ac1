package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
)

// Tests for the concurrent serving path: the singleflight tree cache must be
// invisible in the served bytes (same JSON with and without it, for every
// spelling of a query), spelling variants must collapse to one cache entry,
// and learning must invalidate by generation bump.

var updateGolden = flag.Bool("update-golden", false, "rewrite golden served-JSON fixtures")

// newServeSystem builds a deterministic system, optionally with the tree
// cache enabled. Every call sees the same dataset and workload, so two
// systems built here are byte-for-byte interchangeable.
func newServeSystem(t testing.TB, cached bool) *repro.System {
	t.Helper()
	cfg := repro.Config{
		WorkloadSQL: repro.DemoWorkloadSQL(2000, 2),
		Intervals:   repro.DemoIntervals(),
	}
	if cached {
		cfg.TreeCacheEntries = 128
		cfg.TreeCacheBytes = 32 << 20
	}
	sys, err := repro.NewSystem(repro.DemoDataset(4000, 1), cfg)
	if err != nil {
		t.Fatalf("system: %v", err)
	}
	return sys
}

func newServeServer(t testing.TB, cfg Config) *httptest.Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// spellings are semantically identical queries written differently: attribute
// case, conjunct order, IN-list order and duplicates, and BETWEEN vs
// explicit bounds all vary. The canonical signature maps them to one key.
var spellings = []string{
	"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA','Bellevue, WA','Redmond, WA','Kirkland, WA') AND price BETWEEN 150000 AND 400000",
	"SELECT * FROM ListProperty WHERE price BETWEEN 150000 AND 400000 AND neighborhood IN ('Kirkland, WA','Redmond, WA','Bellevue, WA','Seattle, WA')",
	"SELECT * FROM ListProperty WHERE NEIGHBORHOOD IN ('Bellevue, WA','Seattle, WA','Seattle, WA','Redmond, WA','Kirkland, WA') AND PRICE >= 150000 AND PRICE <= 400000",
	"select * from listproperty where Price between 150000 and 400000 and Neighborhood in ('Redmond, WA','Kirkland, WA','Seattle, WA','Bellevue, WA')",
}

// distinctSQL are queries that must NOT share cache entries with spellings
// or each other.
var distinctSQL = []string{
	"SELECT * FROM ListProperty WHERE price BETWEEN 150000 AND 400001 AND neighborhood IN ('Seattle, WA','Bellevue, WA','Redmond, WA','Kirkland, WA')",
	"SELECT * FROM ListProperty WHERE bedrooms >= 3",
	"SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND bedrooms BETWEEN 2 AND 4",
}

func cacheStats(t *testing.T, url string) (entries int, hits, misses uint64) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Cache struct {
			Entries int    `json:"entries"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Cache.Entries, body.Cache.Hits, body.Cache.Misses
}

// TestServedJSONCacheInvisible drives every spelling through a cached and an
// uncached server and requires byte-identical bodies, while the cached
// server must collapse all spellings into a single cache entry.
func TestServedJSONCacheInvisible(t *testing.T) {
	cached := newServeServer(t, Config{System: newServeSystem(t, true), MaxDepth: 3, MaxChildren: 8})
	uncached := newServeServer(t, Config{System: newServeSystem(t, false), MaxDepth: 3, MaxChildren: 8})

	for i, sql := range spellings {
		respC, bodyC := postJSON(t, cached.URL+"/v1/query", queryRequest{SQL: sql})
		respU, bodyU := postJSON(t, uncached.URL+"/v1/query", queryRequest{SQL: sql})
		if respC.StatusCode != http.StatusOK || respU.StatusCode != http.StatusOK {
			t.Fatalf("spelling %d: status cached=%d uncached=%d", i, respC.StatusCode, respU.StatusCode)
		}
		if !bytes.Equal(bodyC, bodyU) {
			t.Fatalf("spelling %d: served JSON differs with cache:\ncached:   %s\nuncached: %s", i, bodyC, bodyU)
		}
		wantCache := "miss"
		if i > 0 {
			wantCache = "hit"
		}
		if got := respC.Header.Get("X-Cache"); got != wantCache {
			t.Errorf("spelling %d: X-Cache = %q; want %q", i, got, wantCache)
		}
		if got := respU.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("spelling %d: uncached X-Cache = %q; want miss", i, got)
		}
	}

	entries, hits, misses := cacheStats(t, cached.URL)
	if entries != 1 {
		t.Errorf("spelling variants created %d cache entries; want 1", entries)
	}
	if misses != 1 || hits != uint64(len(spellings)-1) {
		t.Errorf("hits=%d misses=%d; want %d/1", hits, misses, len(spellings)-1)
	}

	// Distinct queries are distinct entries — and still byte-identical.
	for i, sql := range distinctSQL {
		_, bodyC := postJSON(t, cached.URL+"/v1/query", queryRequest{SQL: sql})
		_, bodyU := postJSON(t, uncached.URL+"/v1/query", queryRequest{SQL: sql})
		if !bytes.Equal(bodyC, bodyU) {
			t.Fatalf("distinct %d: served JSON differs with cache", i)
		}
	}
	if entries, _, _ = cacheStats(t, cached.URL); entries != 1+len(distinctSQL) {
		t.Errorf("entries = %d; want %d", entries, 1+len(distinctSQL))
	}

	// Refine must also serve from the cache and agree byte-for-byte.
	refC, bodyC := postJSON(t, cached.URL+"/v1/refine", refineRequest{SQL: spellings[1], Path: []int{0}})
	refU, bodyU := postJSON(t, uncached.URL+"/v1/refine", refineRequest{SQL: spellings[1], Path: []int{0}})
	if refC.StatusCode != http.StatusOK || refU.StatusCode != http.StatusOK {
		t.Fatalf("refine status cached=%d uncached=%d: %s", refC.StatusCode, refU.StatusCode, bodyC)
	}
	if !bytes.Equal(bodyC, bodyU) {
		t.Fatalf("refine JSON differs with cache:\ncached:   %s\nuncached: %s", bodyC, bodyU)
	}
	if got := refC.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("refine X-Cache = %q; want hit (tree cached by earlier /v1/query)", got)
	}
}

// TestGoldenServedJSON pins the served JSON at the HTTP layer — the
// externally visible contract of the serving path — across representative
// request shapes, each /v1/query shape through a miss, the first hit (which
// stores the body) and a stored-body hit. Regenerate with -update-golden only
// for intentional behaviour changes.
func TestGoldenServedJSON(t *testing.T) {
	hs := newServeServer(t, Config{System: newServeSystem(t, true), MaxDepth: 3, MaxChildren: 6})

	scenarios := []struct {
		name string
		path string
		body any
	}{
		{"query-costbased", "/v1/query", queryRequest{SQL: spellings[0]}},
		{"query-costbased-respelled", "/v1/query", queryRequest{SQL: spellings[2]}},
		{"query-attrcost", "/v1/query", queryRequest{SQL: spellings[0], Technique: "attr-cost"}},
		{"query-nocost-shallow", "/v1/query", queryRequest{SQL: distinctSQL[2], Technique: "no-cost", MaxDepth: 2}},
		{"refine-first-child", "/v1/refine", refineRequest{SQL: spellings[0], Path: []int{0}}},
	}

	got := make(map[string]json.RawMessage, len(scenarios))
	for _, sc := range scenarios {
		resp, body := postJSON(t, hs.URL+sc.path, sc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sc.name, resp.StatusCode, body)
		}
		if sc.path == "/v1/query" {
			// The first request may miss; the second hit renders and stores
			// the body, the third writes the stored body. All three agree.
			for rep := 2; rep <= 3; rep++ {
				resp, again := postJSON(t, hs.URL+sc.path, sc.body)
				if got := resp.Header.Get("X-Cache"); got != "hit" {
					t.Errorf("%s request %d: X-Cache = %q; want hit", sc.name, rep, got)
				}
				if !bytes.Equal(again, body) {
					t.Fatalf("%s request %d: body differs from request 1\ngot:  %s\nwant: %s", sc.name, rep, again, body)
				}
			}
		}
		got[sc.name] = json.RawMessage(bytes.TrimSpace(body))
	}

	golden := filepath.Join("testdata", "golden_serve.json")
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", golden, len(got))
		return
	}

	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d scenarios; test produced %d", len(want), len(got))
	}
	compact := func(raw json.RawMessage) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for name, wantBody := range want {
		if compact(wantBody) != compact(got[name]) {
			t.Errorf("%s: served JSON drifted from golden\ngot:  %s\nwant: %s", name, got[name], wantBody)
		}
	}
}

// TestConcurrentServeWithLearning hammers /v1/query on a learning server —
// cached and uncached side by side — with a mix of identical and distinct
// queries. Run under -race this exercises the snapshot swap against the
// singleflight cache. Afterwards both servers have folded the same query
// multiset (workload statistics are commutative counts), so probing them in
// the same order must produce byte-identical trees.
func TestConcurrentServeWithLearning(t *testing.T) {
	cached := newServeServer(t, Config{System: newServeSystem(t, true), Learn: true, MaxDepth: 3, MaxChildren: 8})
	uncached := newServeServer(t, Config{System: newServeSystem(t, false), Learn: true, MaxDepth: 3, MaxChildren: 8})

	// The workload each server sees: every worker sends the same mix, so
	// both servers learn the same multiset regardless of interleaving.
	// Attribute case is uniform across requests because first-seen case
	// wins in the statistics' display table.
	mix := append([]string{}, spellings[0], spellings[1], distinctSQL[0], distinctSQL[1], distinctSQL[2], spellings[0])

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*2*len(mix))
	hammer := func(url string) {
		defer wg.Done()
		for _, sql := range mix {
			resp, body := postJSONerr(url+"/v1/query", queryRequest{SQL: sql})
			if resp == nil {
				errs <- fmt.Errorf("no response for %q", sql)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d for %q: %s", resp.StatusCode, sql, body)
			}
		}
	}
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go hammer(cached.URL)
		go hammer(uncached.URL)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Both learned workers×len(mix) queries; generations must agree.
	genOf := func(url string) uint64 {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Generation uint64 `json:"generation"`
			Learned    int64  `json:"learned"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Learned != int64(workers*len(mix)) {
			t.Errorf("%s learned %d; want %d", url, body.Learned, workers*len(mix))
		}
		return body.Generation
	}
	if gc, gu := genOf(cached.URL), genOf(uncached.URL); gc != gu {
		t.Fatalf("generations diverged: cached=%d uncached=%d", gc, gu)
	}

	// Probe serially in lockstep: identical stats → byte-identical trees,
	// cache or no cache.
	for i, sql := range append(append([]string{}, spellings...), distinctSQL...) {
		_, bodyC := postJSON(t, cached.URL+"/v1/query", queryRequest{SQL: sql})
		_, bodyU := postJSON(t, uncached.URL+"/v1/query", queryRequest{SQL: sql})
		if !bytes.Equal(bodyC, bodyU) {
			t.Fatalf("probe %d (%q): served JSON differs after concurrent learning:\ncached:   %s\nuncached: %s", i, sql, bodyC, bodyU)
		}
	}
}

// postJSONerr is postJSON without the test dependency, for goroutines.
func postJSONerr(url string, body any) (*http.Response, []byte) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp, nil
	}
	return resp, buf.Bytes()
}

// TestGenerationBumpInvalidatesCache shows learning invalidates by key: a
// learning server never re-serves a tree computed under superseded
// statistics, because the bumped generation is part of the cache key.
func TestGenerationBumpInvalidatesCache(t *testing.T) {
	hs := newServeServer(t, Config{System: newServeSystem(t, true), Learn: true})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, hs.URL+"/v1/query", queryRequest{SQL: spellings[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		// Each request learns after serving, so the next identical request
		// runs under a new generation: always a miss.
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("request %d: X-Cache = %q; want miss (generation bumped)", i, got)
		}
	}
	if _, hits, misses := cacheStats(t, hs.URL); hits != 0 || misses != 3 {
		t.Errorf("hits=%d misses=%d; want 0/3", hits, misses)
	}
}

// TestRequestBodyTooLarge pins the 413 from MaxBytesReader.
func TestRequestBodyTooLarge(t *testing.T) {
	srv, err := New(Config{System: newServeSystem(t, false), MaxBodyBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	big := queryRequest{SQL: "SELECT * FROM ListProperty WHERE neighborhood IN ('" + strings.Repeat("x", 512) + "')"}
	for _, path := range []string{"/v1/query", "/v1/refine", "/v1/session"} {
		resp, body := postJSON(t, hs.URL+path, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%s); want 413", path, resp.StatusCode, body)
		}
	}
}

// TestClientCancellation pins the 499 path: a request whose context is
// already canceled must not run a categorization and must report the
// client-closed-request status.
func TestClientCancellation(t *testing.T) {
	for _, cachedSys := range []bool{false, true} {
		srv, err := New(Config{System: newServeSystem(t, cachedSys)})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		raw, _ := json.Marshal(queryRequest{SQL: spellings[0]})
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(raw)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != StatusClientClosedRequest {
			t.Errorf("cached=%v: status = %d; want %d", cachedSys, rec.Code, StatusClientClosedRequest)
		}
	}
}

// TestStoredBodyUnderVariedBounds interleaves render bounds on one cached
// query: the first hit stores the body for its bounds, hits under other
// bounds render, and every body — stored or rendered — matches an uncached
// server byte for byte.
func TestStoredBodyUnderVariedBounds(t *testing.T) {
	sys := newServeSystem(t, true)
	cached := newServeServer(t, Config{System: sys})
	uncached := newServeServer(t, Config{System: newServeSystem(t, false)})

	for round := 0; round < 3; round++ {
		for _, depth := range []int{1, 2, 3} {
			for _, children := range []int{2, 8} {
				req := queryRequest{SQL: spellings[0], MaxDepth: depth, MaxChildren: children}
				respC, bodyC := postJSON(t, cached.URL+"/v1/query", req)
				respU, bodyU := postJSON(t, uncached.URL+"/v1/query", req)
				if respC.StatusCode != http.StatusOK || respU.StatusCode != http.StatusOK {
					t.Fatalf("depth %d children %d: status cached=%d uncached=%d", depth, children, respC.StatusCode, respU.StatusCode)
				}
				if !bytes.Equal(bodyC, bodyU) {
					t.Fatalf("round %d depth %d children %d: cached body differs\ncached:   %s\nuncached: %s", round, depth, children, bodyC, bodyU)
				}
				if got, want := respC.Header.Get("Content-Length"), fmt.Sprint(len(bodyC)); got != want {
					t.Errorf("Content-Length = %q; want %s", got, want)
				}
			}
		}
	}

	// The miss rendered under (1, 2) and stored nothing; the first hit,
	// under (1, 8), stored its body, and no later bounds displaced it.
	q, err := repro.ParseQuery(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	out, ok := sys.Peek(q, repro.CostBased, repro.Options{})
	if !ok {
		t.Fatal("query not cached")
	}
	if _, ok := out.Body(repro.RenderBounds{MaxDepth: 1, MaxChildren: 8}); !ok {
		t.Error("the first hit's body is not the stored one")
	}
	for _, b := range []repro.RenderBounds{{MaxDepth: 1, MaxChildren: 2}, {MaxDepth: 3, MaxChildren: 8}} {
		if _, ok := out.Body(b); ok {
			t.Errorf("a body is stored for %+v; want only the first hit's", b)
		}
	}
}

// TestStoredBodyFirstHitRace races many clients on the first hit of one
// entry — each may render, one body is stored — and requires every response
// to equal the uncached server's. Run under -race it exercises concurrent
// Peek and Replace on the entry.
func TestStoredBodyFirstHitRace(t *testing.T) {
	cached := newServeServer(t, Config{System: newServeSystem(t, true), MaxDepth: 3, MaxChildren: 8})
	uncached := newServeServer(t, Config{System: newServeSystem(t, false), MaxDepth: 3, MaxChildren: 8})
	req := queryRequest{SQL: spellings[1]}
	_, want := postJSON(t, uncached.URL+"/v1/query", req)
	if resp, _ := postJSON(t, cached.URL+"/v1/query", req); resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("priming request X-Cache = %q; want miss", resp.Header.Get("X-Cache"))
	}

	const clients = 16
	bodies := make([][]byte, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Two requests each: the first races the store, the second
			// reads whatever won.
			for rep := 0; rep < 2; rep++ {
				resp, body := postJSONerr(cached.URL+"/v1/query", req)
				if resp == nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: failed request (%v)", i, resp)
					return
				}
				if rep > 0 && !bytes.Equal(body, bodies[i]) {
					t.Errorf("client %d: second body differs from its first", i)
				}
				bodies[i] = body
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Fatalf("client %d: body differs from the uncached server\ngot:  %s\nwant: %s", i, body, want)
		}
	}
}

// TestStoredBodyHitAllocs pins the allocation count of a stored-body hit
// through Handler(): request decode, parse, signature, cache key and probe,
// headers, and one write of the stored bytes. Rendering the tree on every hit
// cost about 460.
func TestStoredBodyHitAllocs(t *testing.T) {
	srv, err := New(Config{System: newServeSystem(t, true), MaxDepth: 3, MaxChildren: 8})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(queryRequest{SQL: spellings[0]})
	if err != nil {
		t.Fatal(err)
	}
	var rec *httptest.ResponseRecorder
	serve := func() {
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(raw)))
	}
	serve() // miss
	serve() // first hit: renders and stores the body
	want := rec.Body.String()
	allocs := testing.AllocsPerRun(50, serve)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || rec.Body.String() != want {
		t.Fatalf("stored-body hit: status %d, X-Cache %q, body equal %v", rec.Code, rec.Header().Get("X-Cache"), rec.Body.String() == want)
	}
	t.Logf("stored-body hit: %.0f allocations", allocs)
	if allocs > 100 {
		t.Errorf("stored-body hit allocates %.0f times; want at most 100", allocs)
	}
}
