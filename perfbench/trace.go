package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/category"
	"repro/internal/datagen"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// span is one timed call: a layer's public entry point, a whole op (a root,
// Parent 0), or the server-side handler. Spans of one op share Op.
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     int64 // ns since the recorder's epoch
	Bytes          int64 // server.handle: response body bytes
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) start(name string, op, parent int64) span {
	return span{ID: r.ids.Add(1), Parent: parent, Op: op, Name: name, Start: r.now()}
}

func (r *recorder) finish(s span) {
	s.End = r.now()
	r.add(s)
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write dumps the spans as CSV: id,parent,op,name,start_ns,end_ns,bytes.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns,bytes")
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.ID, s.Parent, s.Op, s.Name, s.Start, s.End, s.Bytes)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Op ids: reads count up from 1; appends are numbered from appendOpBase.
const appendOpBase = 1 << 40

// Root span names: a read in the measured phase, a set-up priming read,
// and an append.
const (
	rootRead   = "op"
	rootPrime  = "prime"
	rootAppend = "append"
)

// staleTree is the newest tree built for a signature and the statistics it
// was built under: the repair material the serving cache keeps.
type staleTree struct {
	tree  *repro.Tree
	stats *repro.WorkloadStats
}

// tracer replays reads serially. For each op it calls, in the handler's
// order, the layers' public entry points on the serving system: Parse,
// Signature, Peek, and on a miss Select and CategorizeRows (or DiffStats
// and Repair when a stale tree exists), then ServeParsedWith, which does
// the miss's real work and stores the tree; the HTTP request that follows
// is then served from the cache. With learning, a second AdaptiveSystem
// over the same base system learns each query right after the server did,
// so its snapshot matches the server's (same statistics, same generation,
// same shared tree cache) and LearnQuery is timed on it.
type tracer struct {
	r       *runner
	rec     *recorder
	e       *env
	c       *client
	learner *repro.AdaptiveSystem
	stale   map[string]staleTree
	shardc  category.ShardCounters
	nextOp  int64

	handlerHit map[int64]bool
	probes     int // measured-phase reads
	probeHits  int

	selects              int
	selRows              int
	conjHits, conjMisses uint64
	zonePruned, zoneScan uint64
	builds, buildNodes   int
	learnAllocKB         []float64
	t                    tally
}

// serving returns the system snapshot the server answers from.
func (t *tracer) serving() *repro.System {
	if t.learner != nil {
		return t.learner.System()
	}
	return t.e.sys
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// read traces one read op. kind is rootRead or rootPrime.
func (t *tracer) read(kind string, i int) {
	t.nextOp++
	op, rec := t.nextOp, t.rec
	body := t.r.readBody(i)
	root := rec.start(kind, op, 0)
	s := rec.start("sqlparse.parse", op, root.ID)
	q, err := sqlparse.Parse(t.r.ops.reads[i%len(t.r.ops.reads)])
	rec.finish(s)
	if err != nil {
		rec.finish(root)
		t.t.reads++
		t.t.readFails++
		t.t.fail(err)
		return
	}
	s = rec.start("sqlparse.signature", op, root.ID)
	sig := q.Signature()
	rec.finish(s)
	sys := t.serving()
	s = rec.start("treecache.probe", op, root.ID)
	_, hit := sys.Peek(q, repro.CostBased, repro.Options{})
	rec.finish(s)
	var buildErr error
	if !hit {
		buildErr = t.build(op, root.ID, q, sig, sys)
		s = rec.start("repro.serve", op, root.ID)
		_, err := sys.ServeParsedWith(context.Background(), q, repro.CostBased, repro.Options{}, repro.ServePolicy{})
		rec.finish(s)
		buildErr = errors.Join(buildErr, err)
	}
	s = rec.start("server.request", op, root.ID)
	status, handlerHit, err := t.c.post(body, op, s.ID)
	rec.finish(s)
	if t.learner != nil {
		s = rec.start("workload.learn", op, root.ID)
		a0 := allocatedBytes()
		t.learner.LearnQuery(q)
		a1 := allocatedBytes()
		rec.finish(s)
		t.learnAllocKB = append(t.learnAllocKB, float64(a1-a0)/1024)
	}
	rec.finish(root)

	t.handlerHit[op] = handlerHit
	if kind == rootRead {
		t.probes++
		if hit {
			t.probeHits++
		}
	}
	t.t.reads++
	if err == nil {
		err = buildErr
	}
	if err == nil {
		err = t.r.check(i, status, t.c.buf.Bytes())
	}
	if err != nil {
		t.t.readFails++
		t.t.fail(fmt.Errorf("traced read %d: %w", i, err))
	}
}

// build repeats a miss's layer work outside the cache: Select then
// CategorizeRows, or — when a tree from an older statistics snapshot
// exists — DiffStats then Repair, as the serving path's repair does.
func (t *tracer) build(op, parent int64, q *repro.Query, sig string, sys *repro.System) error {
	rec, rel, stats := t.rec, sys.Relation(), sys.Stats()
	c := category.NewCategorizer(stats, repro.Options{})
	c.RecordTrace = true // as the serving path's cached builds do
	c.Counters = &t.shardc
	var rows []int
	if st, ok := t.stale[sig]; ok {
		s := rec.start("workload.diff", op, parent)
		diff := workload.DiffStats(st.stats, stats, 0)
		rec.finish(s)
		if diff.Same {
			t.stale[sig] = staleTree{st.tree, stats}
			return nil
		}
		s = rec.start("category.repair", op, parent)
		tree, info, err := c.Repair(rel, q, st.tree, diff)
		rec.finish(s)
		if err != nil {
			return err
		}
		if info.OK {
			t.noteTree(sig, tree, stats)
			return nil
		}
		rows = st.tree.Root.Tset // the serving path's staleRows
	} else {
		sel0, sto0 := rel.SelectStats(), rel.StorageStats()
		s := rec.start("relation.select", op, parent)
		rows = rel.Select(q.Predicate())
		rec.finish(s)
		sel1, sto1 := rel.SelectStats(), rel.StorageStats()
		t.selects++
		t.selRows += len(rows)
		t.conjHits += sel1.ConjunctHits - sel0.ConjunctHits
		t.conjMisses += sel1.ConjunctMisses - sel0.ConjunctMisses
		t.zonePruned += sto1.ZonePruned - sto0.ZonePruned
		t.zoneScan += sto1.ZoneScanned - sto0.ZoneScanned
	}
	s := rec.start("category.categorize", op, parent)
	tree, err := c.CategorizeRows(rel, q, rows)
	rec.finish(s)
	if err != nil {
		return err
	}
	t.noteTree(sig, tree, stats)
	return nil
}

func (t *tracer) noteTree(sig string, tree *repro.Tree, stats *repro.WorkloadStats) {
	t.builds++
	t.buildNodes += tree.NodeCount()
	if t.learner != nil {
		t.stale[sig] = staleTree{tree, stats}
	}
}

// runTraced measures the per-layer metrics. It sets up once (tracing the
// set-up's layer calls and priming), then spends the first half of the run
// on traced serial reads and the second half on the same reads untraced;
// ingest runs its open-loop writer beside the reader in both halves.
func (r *runner) runTraced() (res *result, err error) {
	rec := r.rec
	if err := r.prepare(); err != nil {
		return nil, err
	}
	w, err := workload.ParseStrings(repro.DemoWorkloadSQL(logQueries, logSeed))
	if err != nil {
		return nil, err
	}
	_ = r.span("workload.preprocess", func() error {
		workload.Preprocess(w, workload.Config{Table: datagen.TableName, Intervals: datagen.Intervals()})
		return nil
	})
	runtime.GC()
	e, err := r.setup(false)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	t := &tracer{r: r, rec: rec, e: e, c: newClient(e.url), stale: make(map[string]staleTree), handlerHit: make(map[int64]bool)}
	defer t.c.close()
	e.mw.rec.Store(rec)
	if r.learn() {
		if t.learner, err = e.sys.Adaptive(); err != nil {
			return nil, err
		}
	}
	if r.workload == "hot" || r.workload == "learn" {
		for i := 0; i < mixSize; i++ {
			t.read(rootPrime, i)
		}
	}
	heapAfterSetup := liveHeap()

	half := time.Duration(r.seconds) * time.Second / 2
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cache0, repair0 := e.sys.CacheStats(), e.sys.RepairStats()
	var dur0 repro.DurabilityStats
	if e.dur != nil {
		dur0 = e.dur.Stats()
	}

	// Traced half.
	reads := 0
	tracedReads := func(g *gate) *tally {
		for ; g.enter(); reads++ {
			t.read(rootRead, reads)
			g.leave()
		}
		return &t.t
	}
	total := &tally{}
	nextRow := ingestPreload
	g := startGate(half, nil)
	if r.workload == "ingest" {
		var tt *tally
		tt, nextRow = r.ingestPhase(e, g, nextRow, tracedReads, rec)
		total.merge(tt)
	} else {
		total.merge(tracedReads(g))
	}
	if err := g.wait(); err != nil {
		return nil, err
	}
	cache1, repair1 := e.sys.CacheStats(), e.sys.RepairStats()
	var dur1 repro.DurabilityStats
	walPerRow := 0.0
	if e.dur != nil {
		dur1 = e.dur.Stats()
		walPerRow = walBytesPerRow(e.dir, dur1.TailRows)
	}
	e.mw.rec.Store(nil)

	// Untraced half: the same op stream, serial, without the layer calls.
	var plain []time.Duration
	plainReads := func(g *gate) *tally {
		pt := r.closedLoop(e, g, 1, reads)
		reads += pt.reads
		plain = pt.lats
		return pt
	}
	g = startGate(half, nil)
	if r.workload == "ingest" {
		var tt *tally
		tt, nextRow = r.ingestPhase(e, g, nextRow, plainReads, nil)
		total.merge(tt)
	} else {
		total.merge(plainReads(g))
	}
	if err := g.wait(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	if r.workload == "ingest" {
		acked := ingestPreload + total.appends - total.appendFail
		missing, err := r.verifyStore(e, r.ops.rows[:acked])
		if err != nil {
			return nil, fmt.Errorf("reopening the ingest store: %w", err)
		}
		if missing > 0 {
			total.appendFail += missing
			total.fail(fmt.Errorf("read-only reopen lacks %d acknowledged rows", missing))
		}
	}

	res = newResult(total)
	a := analyze(rec.spansCopy(), t.handlerHit, r.learn())
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	res.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	res.set("runtime.heap_after_setup_mb", heapAfterSetup/(1<<20))
	a.setQuantiles(res, "server.handle", "server.handle_us_p50", "server.handle_us_p99")
	res.set("server.transport_us_p50", quantile(a.transport, 0.5))
	res.set("server.encode_us_p50", quantile(a.encode, 0.5))
	res.set("server.resp_bytes", mean(a.respBytes))
	a.setQuantiles(res, "sqlparse.parse", "sqlparse.parse_us_p50", "")
	a.setQuantiles(res, "sqlparse.signature", "sqlparse.signature_us_p50", "")
	a.setQuantiles(res, "treecache.probe", "treecache.probe_us_p50", "")
	res.set("treecache.hit_ratio", ratio(float64(t.probeHits), float64(t.probes)))
	res.set("treecache.stale_ratio", ratio(float64(cache1.Stale-cache0.Stale), float64(cache1.Misses-cache0.Misses)))
	res.set("treecache.evictions", float64(cache1.Evictions-cache0.Evictions))
	a.setQuantiles(res, "relation.select", "relation.select_us_p50", "relation.select_us_p99")
	res.set("relation.result_rows_mean", ratio(float64(t.selRows), float64(t.selects)))
	res.set("relation.conjunct_hit_ratio", ratio(float64(t.conjHits), float64(t.conjHits+t.conjMisses)))
	res.set("relation.zone_pruned_ratio", ratio(float64(t.zonePruned), float64(t.zonePruned+t.zoneScan)))
	res.set("relation.bytes_per_row", r.relBytes)
	a.setQuantiles(res, "category.categorize", "category.categorize_us_p50", "category.categorize_us_p99")
	res.set("category.nodes_per_tree", ratio(float64(t.buildNodes), float64(t.builds)))
	res.set("category.sharded_nodes", ratio(float64(t.shardc.Snapshot(0).ShardedNodes), float64(t.builds)))
	a.setQuantiles(res, "category.repair", "category.repair_us_p50", "category.repair_us_p99")
	stale := float64((repair1.Reused - repair0.Reused) + (repair1.Repaired - repair0.Repaired) + (repair1.Rebuilt - repair0.Rebuilt))
	res.set("category.repaired_ratio", ratio(float64(repair1.Repaired-repair0.Repaired), stale))
	copied := float64(repair1.CopiedNodes - repair0.CopiedNodes)
	res.set("category.copied_node_ratio", ratio(copied, copied+float64(repair1.RebuiltNodes-repair0.RebuiltNodes)))
	res.set("workload.preprocess_ms", a.totalMs("workload.preprocess"))
	a.setQuantiles(res, "workload.learn", "workload.learn_us_p50", "workload.learn_us_p99")
	res.set("workload.learn_alloc_kb", mean(t.learnAllocKB))
	logSize := e.sys.Stats().N()
	if t.learner != nil {
		logSize = t.learner.WorkloadSize()
	}
	res.set("workload.log_queries", float64(logSize))
	a.setQuantiles(res, "workload.diff", "workload.diff_us_p50", "")
	res.set("durable.open_ms", a.totalMs("durable.open"))
	res.set("durable.relation_ms", a.totalMs("durable.relation"))
	res.set("durable.col_loads", float64(r.durStats.ColumnLoads))
	res.set("durable.loaded_mb", float64(r.durStats.LoadedBytes)/(1<<20))
	a.setQuantiles(res, "durable.append", "durable.append_us_p50", "durable.append_us_p99")
	res.set("durable.fsyncs", float64(dur1.Fsyncs-dur0.Fsyncs))
	res.set("durable.seals", float64(dur1.Segments-dur0.Segments))
	res.set("durable.wal_bytes_per_row", walPerRow)
	res.set("datagen.dataset_ms", a.totalMs("datagen.dataset"))
	a.setQuantiles(res, "repro.serve", "repro.serve_us_p50", "")
	res.set("ingest.writer_lag_ms", quantile(durations(total.lags, time.Millisecond), 0.99))
	app := durations(total.appendLats, time.Millisecond)
	res.set("ingest.append_p50_ms", quantile(app, 0.5))
	res.set("ingest.append_p99_ms", quantile(app, 0.99))
	res.set("trace.overhead_ratio", ratio(mean(a.tracedOps), mean(durations(plain, time.Microsecond)))-1)
	res.set("trace.unaccounted_ratio", ratio(a.unaccounted, a.opTotal))
	for _, n := range a.notes() {
		res.note("%s", n)
	}
	res.note("traced reads %d (%d probe hits), untraced serial reads %d", t.probes, t.probeHits, len(plain))
	res.note("absent: repro.serve_self_us_p50, as the program counts no categorize time inside a serve; resilience admission wait, as two closed-loop clients never queue")
	if n := r.wrapped(reads); n > 0 {
		res.note("cold stream wrapped: %d of %d reads repeated a query", n, reads)
	}
	if err := rec.write(filepath.Join(r.work, fmt.Sprintf("trace-%s-seed%d.csv", r.workload, r.seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// walBytesPerRow reads the live WAL's size from disk and divides it by the
// tail rows it holds (its header page is amortized over them).
func walBytesPerRow(dir string, tailRows int) float64 {
	if tailRows == 0 {
		return 0
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		return 0
	}
	sort.Strings(wals)
	fi, err := os.Stat(wals[len(wals)-1])
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / float64(tailRows)
}

func (r *recorder) spansCopy() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// analysis holds what the spans say: durations per layer (µs), per-op
// derived times, and how much op time no layer span covers.
type analysis struct {
	byName      map[string][]float64
	transport   []float64
	encode      []float64
	respBytes   []float64
	tracedOps   []float64 // measured-phase read ops, µs
	unaccounted float64
	opTotal     float64
}

func analyze(spans []span, handlerHit map[int64]bool, learn bool) *analysis {
	a := &analysis{byName: make(map[string][]float64)}
	byOp := make(map[int64][]span)
	for _, s := range spans {
		a.byName[s.Name] = append(a.byName[s.Name], us(s.dur()))
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	for op, ss := range byOp {
		var root *span
		d := make(map[string]float64)
		for i := range ss {
			if ss[i].Parent == 0 {
				root = &ss[i]
			}
			d[ss[i].Name] += us(ss[i].dur())
		}
		if root == nil || root.Name == rootAppend {
			continue
		}
		if _, ok := d["server.handle"]; ok {
			a.transport = append(a.transport, d["server.request"]-d["server.handle"])
			if handlerHit[op] {
				// The handler's own parse, signature, probe and learn are
				// the calls the op already timed; the rest is its self time.
				self := d["server.handle"] - d["sqlparse.parse"] - d["sqlparse.signature"] - d["treecache.probe"]
				if learn {
					self -= d["workload.learn"]
				}
				a.encode = append(a.encode, self)
			}
		}
		for _, s := range ss {
			if s.Name == "server.handle" {
				a.respBytes = append(a.respBytes, float64(s.Bytes))
			}
		}
		if root.Name != rootRead {
			continue
		}
		total := us(root.dur())
		a.tracedOps = append(a.tracedOps, total)
		a.opTotal += total
		a.unaccounted += total - us(covered(root, ss))
	}
	return a
}

// covered returns how much of root's interval its direct children cover.
func covered(root *span, ss []span) time.Duration {
	var iv [][2]int64
	for _, s := range ss {
		if s.Parent == root.ID {
			iv = append(iv, [2]int64{max(s.Start, root.Start), min(s.End, root.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64 = 0, root.Start
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(sum)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (a *analysis) setQuantiles(res *result, layer, p50, p99 string) {
	xs := a.byName[layer]
	res.set(p50, quantile(xs, 0.5))
	if p99 != "" {
		res.set(p99, quantile(xs, 0.99))
	}
}

// totalMs sums a set-up layer's spans (one call per run) in ms.
func (a *analysis) totalMs(layer string) float64 {
	s := 0.0
	for _, x := range a.byName[layer] {
		s += x
	}
	return s / 1000
}

// notes lists the sample count behind each layer's timings.
func (a *analysis) notes() []string {
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("span %-22s %7d samples, %d beyond p99", n, len(a.byName[n]), beyond(len(a.byName[n]), 0.99)))
	}
	return out
}
