package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// encodeOps renders an op stream byte for byte: one query per line, then
// each row's cells.
func encodeOps(o *ops) []byte {
	var b bytes.Buffer
	for _, q := range o.reads {
		b.WriteString(q)
		b.WriteByte('\n')
	}
	for _, row := range o.rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%q:%x,", v.Str, math.Float64bits(v.Num))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makeOps(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeOps(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeOps(a), encodeOps(b)) {
			t.Errorf("%s: seed 7 produced two different op streams", w)
		}
		c, err := makeOps(w, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(encodeOps(a), encodeOps(c)) {
			t.Errorf("%s: seeds 7 and 8 produced the same op stream", w)
		}
	}
}

func TestOpStreamShapes(t *testing.T) {
	hot, err := makeOps("hot", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot.reads) != mixSize || hot.rows != nil {
		t.Errorf("hot: %d reads, %d rows; want %d reads, no rows", len(hot.reads), len(hot.rows), mixSize)
	}
	cold, err := makeOps("cold", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(map[string]bool)
	for _, sql := range cold.reads {
		q, err := repro.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		if sigs[q.Signature()] {
			t.Fatalf("cold: signature repeats: %s", sql)
		}
		sigs[q.Signature()] = true
	}
	if len(cold.reads) != 2*coldRate {
		t.Errorf("cold: %d reads, want %d", len(cold.reads), 2*coldRate)
	}
	// The seed only reorders cold queries within blocks, so every seed's
	// first block holds the same queries.
	other, err := makeOps("cold", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := append([]string(nil), cold.reads[:coldBlock]...)
	y := append([]string(nil), other.reads[:coldBlock]...)
	sort.Strings(x)
	sort.Strings(y)
	if strings.Join(x, "\n") != strings.Join(y, "\n") {
		t.Error("cold: seeds 1 and 2 start with different query sets")
	}
	ingest, err := makeOps("ingest", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := ingestPreload + 3*ingestRate; len(ingest.rows) != want {
		t.Errorf("ingest: %d rows, want %d", len(ingest.rows), want)
	}
}

func TestColdStreamWrapsAround(t *testing.T) {
	r := &runner{workload: "cold", bodies: requestBodies([]string{"a", "b", "c"})}
	if got, want := string(r.readBody(4)), string(r.bodies[1]); got != want {
		t.Errorf("readBody(4) = %s, want %s", got, want)
	}
	if n := r.wrapped(3); n != 0 {
		t.Errorf("wrapped(3) = %d, want 0", n)
	}
	if n := r.wrapped(5); n != 2 {
		t.Errorf("wrapped(5) = %d, want 2", n)
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.505, 51}, {0.99, 99}, {0.999, 100}, {1, 100},
	} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {100, 0.99, 1}, {99, 0.99, 0}, {1, 0.99, 0}, {0, 0.99, 0}, {10, 0.5, 5}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// TestGateAlternatesWorkAndProbeSlices runs a phase of two cycles with two
// workers: the probe must run once per cycle, the active clock must never
// go back and must leave the probe slices out, and enter must fail once the
// phase is over.
func TestGateAlternatesWorkAndProbeSlices(t *testing.T) {
	p, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	g := startGate(2*cycleLen, p)
	var (
		ops, backwards atomic.Int64
		wg             sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Duration
			for g.enter() {
				ops.Add(1)
				time.Sleep(time.Millisecond)
				// The active clock runs on while a pause drains.
				if a := g.active(); a < last {
					backwards.Add(1)
				} else {
					last = a
				}
				g.leave()
			}
		}()
	}
	wg.Wait()
	if err := g.wait(); err != nil {
		t.Fatal(err)
	}
	if len(g.speeds) != 2 {
		t.Errorf("%d probe slices, want 2", len(g.speeds))
	}
	for _, s := range g.speeds {
		if s <= 0 {
			t.Errorf("relative speed %v, want > 0", s)
		}
	}
	if ops.Load() == 0 {
		t.Error("the workers never ran")
	}
	if n := backwards.Load(); n > 0 {
		t.Errorf("the active clock went back %d times", n)
	}
	if g.enter() {
		t.Error("enter succeeded after the phase ended")
	}
	active := g.active()
	// Each slice lasts from the drain to about the cycle's end: at most
	// probeLen, and at least half of it. A busy host may stretch a drain or
	// a slice by some milliseconds; with the slices counted, the active
	// time would be the whole second.
	slack := 40 * time.Millisecond
	if lo, hi := 2*(cycleLen-probeLen)-slack, 2*(cycleLen-probeLen/2)+slack; active < lo || active > hi {
		t.Errorf("active time %v, want between %v and %v", active, lo, hi)
	}
}

// servedBody serves one query from a small uncached server.
func servedBody(t *testing.T, sql string) []byte {
	t.Helper()
	sys, err := repro.NewSystem(repro.DemoDataset(3000, datasetSeed), repro.Config{
		WorkloadSQL: repro.DemoWorkloadSQL(2000, logSeed),
		Intervals:   repro.DemoIntervals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(sys, false)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(requestBody(sql))))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes()
}

func TestCheckerAcceptsServedTreesAndRejectsCorruptedOnes(t *testing.T) {
	numeric := numericAttrs(rowSchema())
	body := servedBody(t, "SELECT * FROM ListProperty WHERE price BETWEEN 100000 AND 900000")
	if err := checkBody(body, numeric); err != nil {
		t.Fatalf("served tree rejected: %v", err)
	}
	var good jsonResponse
	if err := json.Unmarshal(body, &good); err != nil {
		t.Fatal(err)
	}
	var numLevel, catLevel *jsonNode
	var find func(n *jsonNode)
	find = func(n *jsonNode) {
		if len(n.Children) >= 2 && n.Elided == 0 {
			if numeric[strings.ToLower(n.Children[0].Attr)] {
				numLevel = n
			} else if n.Children[0].P > n.Children[1].P {
				catLevel = n
			}
		}
		for i := range n.Children {
			find(&n.Children[i])
		}
	}
	find(&good.Tree)
	if numLevel == nil || catLevel == nil {
		t.Fatal("served tree lacks a numeric and a strictly P-ordered categorical level to corrupt")
	}
	corrupt := map[string]func(r *jsonResponse){
		"root count": func(r *jsonResponse) { r.ResultCount++ },
		"partition":  func(r *jsonResponse) { r.Tree.Children[0].Count++ },
		"P above 1":  func(r *jsonResponse) { r.Tree.Children[0].P = 1.5 },
		"negative Pw": func(r *jsonResponse) {
			r.Tree.Children[0].Pw = -0.1
		},
		"categorical P order": func(r *jsonResponse) {
			n := findPath(r, catLevel, &good)
			n.Children[0], n.Children[1] = n.Children[1], n.Children[0]
		},
		"numeric range order": func(r *jsonResponse) {
			n := findPath(r, numLevel, &good)
			n.Children[0], n.Children[1] = n.Children[1], n.Children[0]
		},
		"mixed level attribute": func(r *jsonResponse) {
			n := findPath(r, catLevel, &good)
			n.Children[1].Attr = "somethingelse"
		},
	}
	for name, f := range corrupt {
		var r jsonResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		f(&r)
		if err := checkTree(&r, numeric); err == nil {
			t.Errorf("%s: corrupted tree accepted", name)
		}
	}
}

// findPath returns the node of r at the position target occupies in ref.
func findPath(r *jsonResponse, target *jsonNode, ref *jsonResponse) *jsonNode {
	var path []int
	var walk func(n *jsonNode, p []int) bool
	walk = func(n *jsonNode, p []int) bool {
		if n == target {
			path = append([]int(nil), p...)
			return true
		}
		for i := range n.Children {
			if walk(&n.Children[i], append(p, i)) {
				return true
			}
		}
		return false
	}
	walk(&ref.Tree, nil)
	n := &r.Tree
	for _, i := range path {
		n = &n.Children[i]
	}
	return n
}

func TestParseRange(t *testing.T) {
	for _, c := range []struct {
		label  string
		lo, hi float64
	}{
		{"price: min-225000", math.Inf(-1), 225000},
		{"price: 225000-250000", 225000, 250000},
		{"price: 300000-max", 300000, math.Inf(1)},
		{"price: -5-3.5", -5, 3.5},
	} {
		lo, hi, err := parseRange(c.label, "price")
		if err != nil || lo != c.lo || hi != c.hi {
			t.Errorf("parseRange(%q) = %v, %v, %v; want %v, %v", c.label, lo, hi, err, c.lo, c.hi)
		}
	}
	for _, bad := range []string{"price: 5", "sqft: 1-2", "price: a-b"} {
		if _, _, err := parseRange(bad, "price"); err == nil {
			t.Errorf("parseRange(%q) accepted", bad)
		}
	}
}

// TestBenchmarkFileMatches pins BENCHMARK.json at the repository root to the
// workloads and metric tables the program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: file %q, program %q", i, w.Name, workloads[i])
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: file %v, program %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: file %v, program %v", i, m, d)
		}
	}
}
