package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/datagen"
)

// An untraced run builds its set-up at least minSetups times and until
// setupBudget of set-up time has accumulated, at most maxSetups times, so
// the cheap set-ups (cold, ingest) repeat more. setup_s reports the median;
// the last set-up serves the run.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 4 * time.Second
)

// runner holds one benchmark run's configuration and generated inputs.
type runner struct {
	workload string
	seed     int64
	seconds  int
	work     string // scratch directory for stores, spans and results
	clients  int

	ops     *ops
	bodies  [][]byte
	numeric map[string]bool

	// hot: the uncached reference server's body for each mix query, and
	// any invariant the reference itself broke.
	ref    [][]byte
	refErr []error

	coldDir  string
	setups   int       // ingest: store directories created so far
	rec      *recorder // non-nil in traced runs
	relBytes float64   // traced: live-heap bytes per row the relation added
	// durStats is the durable store's counters after its relation was
	// materialized: the cold set-up's reopen, the ingest check's reopen.
	durStats repro.DurabilityStats
}

func (r *runner) learn() bool { return r.workload == "learn" }

// span runs f, recording it as a root span when the run is traced.
func (r *runner) span(name string, f func() error) error {
	if r.rec == nil {
		return f()
	}
	s := r.rec.start(name, 0, 0)
	err := f()
	r.rec.finish(s)
	return err
}

// measureRel runs f, which materializes a relation of n rows, and in
// traced runs records the live heap it added per row.
func (r *runner) measureRel(n int, f func() error) error {
	if r.rec == nil {
		return f()
	}
	before := liveHeap()
	err := f()
	r.relBytes = (liveHeap() - before) / float64(n)
	return err
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// prepare does the untimed work a workload needs before its set-ups:
// hot computes the reference bodies, cold writes the durable spill.
func (r *runner) prepare() error {
	switch r.workload {
	case "hot":
		return r.referenceBodies()
	case "cold":
		return r.writeColdSpill()
	}
	return nil
}

// referenceBodies serves each mix query once from a server with the tree
// cache off, over its own copy of the dataset, and checks the trees.
func (r *runner) referenceBodies() error {
	rel := repro.DemoDataset(datasetRows, datasetSeed)
	sys, err := repro.NewSystem(rel, serveConfig(nil, false))
	if err != nil {
		return err
	}
	srv, err := newServer(sys, false)
	if err != nil {
		return err
	}
	h := srv.Handler()
	r.ref = make([][]byte, mixSize)
	r.refErr = make([]error, mixSize)
	for i, b := range r.bodies[:mixSize] {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("reference server: query %d: status %d: %s", i, w.Code, w.Body.Bytes())
		}
		r.ref[i] = w.Body.Bytes()
		r.refErr[i] = checkBody(r.ref[i], r.numeric)
	}
	return nil
}

// writeColdSpill writes the demo dataset into a fresh durable store with
// catserve's ingest path (fsync=batch), then closes it.
func (r *runner) writeColdSpill() error {
	r.coldDir = filepath.Join(r.work, "cold-store")
	if err := os.RemoveAll(r.coldDir); err != nil {
		return err
	}
	var rel *repro.Relation
	_ = r.span("datagen.dataset", func() error {
		rel = repro.DemoDataset(datasetRows, datasetSeed)
		return nil
	})
	dur, err := repro.CreateDurable(r.coldDir, rel.Schema(), repro.DurableOptions{Sync: repro.SyncBatch})
	if err != nil {
		return err
	}
	for i := 0; i < rel.Len(); i++ {
		if err := dur.Append(rel.Row(i)); err != nil {
			dur.Abandon()
			return fmt.Errorf("writing the cold spill: %w", err)
		}
	}
	if err := dur.Sync(); err != nil {
		dur.Abandon()
		return err
	}
	return dur.Close()
}

// setup builds one ready-to-serve environment for the workload. With
// primeMix it also requests each mix query once (hot, learn), as the
// traced run does itself through its own instrumented path.
func (r *runner) setup(primeMix bool) (*env, error) {
	var (
		e   *env
		err error
	)
	switch r.workload {
	case "hot", "learn":
		e, err = r.setupMemory()
	case "cold":
		e, err = r.setupCold()
	case "ingest":
		e, err = r.setupIngest()
	default:
		err = fmt.Errorf("unknown workload %q", r.workload)
	}
	if err != nil || !primeMix || r.workload == "cold" || r.workload == "ingest" {
		return e, err
	}
	c := newClient(e.url)
	defer c.close()
	if err := prime(c, r.bodies[:mixSize]); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// setupMemory is catserve's start-up without -data-dir: generate the
// dataset, mine the workload log, start the server.
func (r *runner) setupMemory() (*env, error) {
	var rel *repro.Relation
	_ = r.measureRel(datasetRows, func() error {
		return r.span("datagen.dataset", func() error {
			rel = repro.DemoDataset(datasetRows, datasetSeed)
			return nil
		})
	})
	sys, err := repro.NewSystem(rel, serveConfig(nil, true))
	if err != nil {
		return nil, err
	}
	return listen(sys, nil, r.learn())
}

// setupCold is catserve's -data-dir restart path: reopen the spill with
// recovery, materialize the relation, mine the log, start the server.
func (r *runner) setupCold() (*env, error) {
	var dur *repro.DurableStore
	err := r.span("durable.open", func() (err error) {
		dur, err = repro.OpenDurable(r.coldDir, repro.DurableOptions{Sync: repro.SyncBatch})
		return err
	})
	if err != nil {
		return nil, err
	}
	var rel *repro.Relation
	err = r.measureRel(datasetRows, func() error {
		return r.span("durable.relation", func() (err error) {
			rel, err = dur.Relation(datagen.TableName)
			return err
		})
	})
	if err == nil && r.rec != nil {
		r.durStats = dur.Stats()
	}
	if err == nil && rel.Len() != datasetRows {
		err = fmt.Errorf("reopened store holds %d rows, want %d", rel.Len(), datasetRows)
	}
	var sys *repro.System
	if err == nil {
		sys, err = repro.NewSystem(rel, serveConfig(dur, true))
	}
	var e *env
	if err == nil {
		e, err = listen(sys, dur, false)
	}
	if err != nil {
		return nil, errors.Join(err, dur.Close())
	}
	return e, nil
}

// setupIngest creates a durable store tracking an empty relation and
// preloads it through Store.Append, then starts the server over it.
func (r *runner) setupIngest() (*env, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("ingest-store-%d", r.setups))
	r.setups++
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	rel := repro.NewRelation(datagen.TableName, rowSchema())
	dur, err := repro.CreateDurable(dir, rel.Schema(), repro.DurableOptions{Sync: repro.SyncBatch, Track: rel})
	if err != nil {
		return nil, err
	}
	err = r.measureRel(ingestPreload, func() error {
		for _, t := range r.ops.rows[:ingestPreload] {
			if err := dur.Append(t); err != nil {
				return fmt.Errorf("preloading the ingest store: %w", err)
			}
		}
		return nil
	})
	var sys *repro.System
	if err == nil {
		sys, err = repro.NewSystem(rel, serveConfig(dur, true))
	}
	var e *env
	if err == nil {
		e, err = listen(sys, dur, false)
	}
	if err != nil {
		return nil, errors.Join(err, dur.Close(), os.RemoveAll(dir))
	}
	e.dir = dir
	return e, nil
}

// check validates one read's response: hot bodies must equal the uncached
// reference byte for byte; every other body must keep the tree invariants.
func (r *runner) check(i, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if r.workload == "hot" {
		k := i % mixSize
		if r.refErr[k] != nil {
			return fmt.Errorf("reference tree: %w", r.refErr[k])
		}
		if !bytes.Equal(body, r.ref[k]) {
			return errors.New("body differs from the uncached reference")
		}
		return nil
	}
	return checkBody(body, r.numeric)
}

// readBody returns the request body of read op i. The mix workloads cycle
// their 64 queries; cold sends each query of its stream once, and a run that
// outlasts the stream starts it again, long after the 256-entry tree cache
// evicted its first queries (wrapped reports how often).
func (r *runner) readBody(i int) []byte { return r.bodies[i%len(r.bodies)] }

// wrapped returns how many of n cold reads repeated an earlier query.
func (r *runner) wrapped(n int) int {
	if r.workload != "cold" || n <= len(r.bodies) {
		return 0
	}
	return n - len(r.bodies)
}

// tally counts one phase's operations.
type tally struct {
	lats       []time.Duration // successful reads, client-observed
	reads      int
	readFails  int
	hits       int
	appendLats []time.Duration // scheduled moment to acknowledgement
	lags       []time.Duration // scheduled moment to start
	appends    int
	appendFail int
	firstErr   error
}

func (t *tally) fail(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.lats = append(t.lats, o.lats...)
	t.reads += o.reads
	t.readFails += o.readFails
	t.hits += o.hits
	t.appendLats = append(t.appendLats, o.appendLats...)
	t.lags = append(t.lags, o.lags...)
	t.appends += o.appends
	t.appendFail += o.appendFail
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) attempted() int { return t.reads + t.appends }
func (t *tally) failed() int    { return t.readFails + t.appendFail }

// closedLoop runs n clients, each sending its next read as soon as the
// previous one completed, until the phase is over. Ops are claimed in
// stream order from a shared counter starting at first.
func (r *runner) closedLoop(e *env, g *gate, n, first int) *tally {
	var next atomic.Int64
	next.Store(int64(first))
	parts := make([]tally, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			c := newClient(e.url)
			defer c.close()
			t.lats = make([]time.Duration, 0, 1<<15)
			for g.enter() {
				r.closedRead(c, t, int(next.Add(1)-1))
				g.leave()
			}
		}(&parts[w])
	}
	wg.Wait()
	var out tally
	for i := range parts {
		out.merge(&parts[i])
	}
	return &out
}

// closedRead sends read op i through c and tallies it.
func (r *runner) closedRead(c *client, t *tally, i int) {
	start := time.Now()
	status, hit, err := c.post(r.readBody(i), 0, 0)
	lat := time.Since(start)
	t.reads++
	if err == nil {
		err = r.check(i, status, c.buf.Bytes())
	}
	if err != nil {
		t.readFails++
		t.fail(fmt.Errorf("read %d: %w", i, err))
		return
	}
	if hit {
		t.hits++
	}
	t.lats = append(t.lats, lat)
}

// writer appends rows[first:] open-loop at ingestRate until the phase is
// over; append k is due k/ingestRate into the phase's active time whether or
// not the previous one was late. It returns the tally and the rows it
// appended.
func (r *runner) writer(e *env, g *gate, first int, rec *recorder) (*tally, int) {
	t := &tally{appendLats: make([]time.Duration, 0, ingestRate*r.seconds), lags: make([]time.Duration, 0, ingestRate*r.seconds)}
	k := 0
	for ; first+k < len(r.ops.rows); k++ {
		due := time.Duration(k) * time.Second / ingestRate
		if !g.enterAt(due) {
			break
		}
		began := g.active()
		var err error
		if rec != nil {
			op := appendOpBase + int64(first+k)
			root := rec.start("append", op, 0)
			s := rec.start("durable.append", op, root.ID)
			err = e.dur.Append(r.ops.rows[first+k])
			rec.finish(s)
			rec.finish(root)
		} else {
			err = e.dur.Append(r.ops.rows[first+k])
		}
		acked := g.active()
		g.leave()
		t.appends++
		if err != nil {
			t.appendFail++
			t.fail(fmt.Errorf("append %d: %w", first+k, err))
			continue
		}
		t.lags = append(t.lags, began-due)
		t.appendLats = append(t.appendLats, acked-due)
	}
	return t, k
}

// ingestPhase runs the ingest mix for one phase: the open-loop writer plus
// one closed-loop reader. It returns the combined tally and the next row
// the writer would append.
func (r *runner) ingestPhase(e *env, g *gate, firstRow int, read func(*gate) *tally, rec *recorder) (*tally, int) {
	var (
		wt   *tally
		done int
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		wt, done = r.writer(e, g, firstRow, rec)
	}()
	rt := read(g)
	wg.Wait()
	rt.merge(wt)
	return rt, firstRow + done
}

// verifyStore reopens the ingest store read-only and counts acknowledged
// rows (want) that it does not hold exactly.
func (r *runner) verifyStore(e *env, want []repro.Tuple) (int, error) {
	if err := e.dur.Sync(); err != nil {
		return 0, err
	}
	var ro *repro.DurableStore
	err := r.span("durable.open", func() (err error) {
		ro, err = repro.OpenDurable(e.dir, repro.DurableOptions{ReadOnly: true})
		return err
	})
	if err != nil {
		return 0, err
	}
	defer ro.Close()
	var rel *repro.Relation
	if err := r.span("durable.relation", func() (err error) {
		rel, err = ro.Relation(datagen.TableName)
		return err
	}); err != nil {
		return 0, err
	}
	if r.rec != nil {
		r.durStats = ro.Stats()
	}
	missing := 0
	for i, t := range want {
		if i >= rel.Len() || !equalTuple(rel.Row(i), t) {
			missing++
		}
	}
	if rel.Len() > len(want) {
		missing += rel.Len() - len(want)
	}
	return missing, nil
}

func equalTuple(a, b repro.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
