// Command perfbench is the repository's serving benchmark. It drives the
// real HTTP handler (internal/server over the repro facade) from one
// process, on loopback, with at most nproc clients of one connection each.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload hot|cold|learn|ingest --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the op
// stream serially with a span around each layer's public entry point and
// reports the per-layer metrics. The last line of standard output is the
// JSON result; the lines before it are a human-readable report. See
// perfbench/README.md for the workloads, metrics and method.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The tables below must match
// BENCHMARK.json (pinned by TestBenchmarkFileMatches).
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
}

var perLayer = []metricDef{
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_after_setup_mb", "MB", "lower"},
	{"server.handle_us_p50", "us", "lower"},
	{"server.handle_us_p99", "us", "lower"},
	{"server.transport_us_p50", "us", "lower"},
	{"server.encode_us_p50", "us", "lower"},
	{"server.resp_bytes", "bytes", "lower"},
	{"sqlparse.parse_us_p50", "us", "lower"},
	{"sqlparse.signature_us_p50", "us", "lower"},
	{"treecache.probe_us_p50", "us", "lower"},
	{"treecache.hit_ratio", "ratio", "higher"},
	{"treecache.stale_ratio", "ratio", "lower"},
	{"treecache.evictions", "count", "lower"},
	{"relation.select_us_p50", "us", "lower"},
	{"relation.select_us_p99", "us", "lower"},
	{"relation.result_rows_mean", "rows", "lower"},
	{"relation.conjunct_hit_ratio", "ratio", "higher"},
	{"relation.zone_pruned_ratio", "ratio", "higher"},
	{"relation.bytes_per_row", "bytes", "lower"},
	{"category.categorize_us_p50", "us", "lower"},
	{"category.categorize_us_p99", "us", "lower"},
	{"category.nodes_per_tree", "count", "lower"},
	{"category.sharded_nodes", "count", "higher"},
	{"category.repair_us_p50", "us", "lower"},
	{"category.repair_us_p99", "us", "lower"},
	{"category.repaired_ratio", "ratio", "higher"},
	{"category.copied_node_ratio", "ratio", "higher"},
	{"workload.preprocess_ms", "ms", "lower"},
	{"workload.learn_us_p50", "us", "lower"},
	{"workload.learn_us_p99", "us", "lower"},
	{"workload.learn_alloc_kb", "KB", "lower"},
	{"workload.log_queries", "count", "lower"},
	{"workload.diff_us_p50", "us", "lower"},
	{"durable.open_ms", "ms", "lower"},
	{"durable.relation_ms", "ms", "lower"},
	{"durable.col_loads", "count", "lower"},
	{"durable.loaded_mb", "MB", "lower"},
	{"durable.append_us_p50", "us", "lower"},
	{"durable.append_us_p99", "us", "lower"},
	{"durable.fsyncs", "count", "lower"},
	{"durable.seals", "count", "lower"},
	{"durable.wal_bytes_per_row", "bytes", "lower"},
	{"datagen.dataset_ms", "ms", "lower"},
	{"repro.serve_us_p50", "us", "lower"},
	{"ingest.writer_lag_ms", "ms", "lower"},
	{"ingest.append_p50_ms", "ms", "lower"},
	{"ingest.append_p99_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.unaccounted_ratio", "ratio", "lower"},
}

var workloads = []string{"hot", "cold", "learn", "ingest"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    []string
	firstErr error
}

func newResult(t *tally) *result {
	return &result{
		Correct:   t.failed() == 0,
		Attempted: t.attempted(),
		Failed:    t.failed(),
		Metrics:   make(map[string]metric),
		firstErr:  t.firstErr,
	}
}

// set records a metric; its unit comes from the metric tables.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					r.note("%s has no samples in this run; reported as 0", name)
					v = 0
				}
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fingerprint describes the machine and build a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func environment() fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	// The build stamps VCS data when the checkout is a git work tree.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				fp.Dirty = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSS returns the process's peak resident set (VmHWM) in MB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: hot, cold, learn or ingest")
		seed     = flag.Int64("seed", 1, "op-stream seed (>= 0)")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		work     = flag.String("work", ".bench_build/work", "scratch directory for stores, span dumps and result files")
	)
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		return usage("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	case *seed < 0:
		return usage("seed must be >= 0")
	case *seconds < 1:
		return usage("seconds must be >= 1")
	case *trace != 0 && *trace != 1:
		return usage("trace must be 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail(err)
	}
	fp := environment()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("env %s\n", fpJSON)

	r := &runner{workload: *workload, seed: *seed, seconds: *seconds, work: *work, clients: min(2, runtime.NumCPU())}
	var err error
	if *trace == 1 {
		r.rec = newRecorder()
	}
	// Ingest's generated rows are its dataset; the other workloads only
	// generate queries here.
	opsSpan := "datagen.ops"
	if *workload == "ingest" {
		opsSpan = "datagen.dataset"
	}
	var ops *ops
	if err := r.span(opsSpan, func() (err error) {
		ops, err = makeOps(*workload, *seed, *seconds)
		return err
	}); err != nil {
		return fail(err)
	}
	r.ops = ops
	r.bodies = requestBodies(ops.reads)
	r.numeric = numericAttrs(rowSchema())

	var res *result
	if *trace == 1 {
		res, err = r.runTraced()
	} else {
		res, err = r.runUntraced()
	}
	if err != nil {
		return fail(err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.name]; !ok {
			return fail(fmt.Errorf("metric %s was not measured", d.name))
		}
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  fail_ratio %.6f (%d of %d ops failed)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if res.firstErr != nil {
		fmt.Printf("  first failure: %v\n", res.firstErr)
	}
	for _, d := range defs {
		fmt.Printf("  %-30s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	saved := struct {
		Env      fingerprint `json:"env"`
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Seconds  int         `json:"seconds"`
		Trace    int         `json:"trace"`
		Result   *result     `json:"result"`
		Notes    []string    `json:"notes"`
	}{fp, *workload, *seed, *seconds, *trace, res, res.notes}
	if b, err := json.MarshalIndent(saved, "", "  "); err == nil {
		path := filepath.Join(*work, fmt.Sprintf("result-%s-seed%d-trace%d.json", *workload, *seed, *trace))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return fail(err)
		}
	}
	fmt.Println(string(out))
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}
