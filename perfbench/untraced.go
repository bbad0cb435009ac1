package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// runUntraced measures the end-to-end metrics: set-up several times, then
// drive the workload's clients against the last set-up for r.seconds.
func (r *runner) runUntraced() (res *result, err error) {
	if err := r.prepare(); err != nil {
		return nil, err
	}
	p, err := newProber()
	if err != nil {
		return nil, err
	}
	defer p.close()

	// A probe slice runs before each set-up and after the last, each after
	// a forced collection; their mean scales setup_s to the reference speed.
	var (
		e      *env
		setupS []float64
		speeds []float64
		spent  time.Duration
	)
	for k := 0; k < maxSetups && (k < minSetups || spent < setupBudget); k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
		}
		runtime.GC()
		s, err := p.speed(time.Now().Add(probeLen))
		if err != nil {
			return nil, err
		}
		speeds = append(speeds, s)
		start := time.Now()
		if e, err = r.setup(true); err != nil {
			return nil, err
		}
		d := time.Since(start)
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	defer func() { err = errors.Join(err, e.close()) }()

	// Start every timed phase from the same heap state: the set-up's
	// garbage collected, the pacer's goal at twice the live heap.
	runtime.GC()
	s, err := p.speed(time.Now().Add(probeLen))
	if err != nil {
		return nil, err
	}
	speeds = append(speeds, s)
	setupScale := mean(speeds)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g := startGate(time.Duration(r.seconds)*time.Second, p)
	var t *tally
	if r.workload == "ingest" {
		t, _ = r.ingestPhase(e, g, ingestPreload, func(g *gate) *tally {
			return r.closedLoop(e, g, 1, 0)
		}, nil)
	} else {
		t = r.closedLoop(e, g, r.clients, 0)
	}
	if err := g.wait(); err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	active := g.active()
	runtime.ReadMemStats(&m1)
	if r.workload == "ingest" {
		acked := ingestPreload + t.appends - t.appendFail
		missing, err := r.verifyStore(e, r.ops.rows[:acked])
		if err != nil {
			return nil, fmt.Errorf("reopening the ingest store: %w", err)
		}
		if missing > 0 {
			t.appendFail += missing
			t.fail(fmt.Errorf("read-only reopen lacks %d acknowledged rows", missing))
		}
	}
	heap := liveHeap()
	runtime.KeepAlive(e)

	lat := durations(t.lats, time.Millisecond)
	rps := float64(len(t.lats)) / active.Seconds()
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	scale := mean(g.speeds)
	res = newResult(t)
	res.set("setup_s", median(setupS)*setupScale)
	res.set("throughput_rps", rps/scale)
	res.set("latency_p50_ms", p50*scale)
	res.set("latency_p99_ms", p99*scale)
	res.set("heap_mb", heap/(1<<20))
	res.set("peak_rss_mb", peakRSS())
	// Ingest's appends are paced by the clock, not by the program, so
	// counting them as ops would make the figure follow the host's speed;
	// there it is per read, the appends' allocation included.
	ops := t.attempted()
	if r.workload == "ingest" {
		ops = t.reads
	}
	res.set("alloc_kb_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(ops)))

	res.note("setup_s samples as measured: %.4f; relative host speed around them %.4f", setupS, speeds)
	res.note("relative host speed over the timed phase: mean %.4f of %d probe slices", scale, len(g.speeds))
	res.note("as measured: throughput %.1f 1/s, latency p50 %.4f ms, p99 %.4f ms", rps, p50, p99)
	res.note("reads %d (%d failed, %d cache hits), %.3fs active of %ds", t.reads, t.readFails, t.hits, active.Seconds(), r.seconds)
	res.note("latency: %d samples, %d beyond p99", len(lat), beyond(len(lat), 0.99))
	if n := r.wrapped(t.reads); n > 0 {
		res.note("cold stream wrapped: %d of %d reads repeated a query", n, t.reads)
	}
	res.note("gc: %d cycles, %.3f ms paused during the timed phase", m1.NumGC-m0.NumGC, float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	if r.workload == "ingest" {
		app := durations(t.appendLats, time.Millisecond)
		lag := durations(t.lags, time.Millisecond)
		res.note("append_p50_ms %.4f ms, append_p99_ms %.4f ms (%d appends, %d failed, %d samples beyond p99)",
			quantile(app, 0.50), quantile(app, 0.99), t.appends, t.appendFail, beyond(len(app), 0.99))
		res.note("writer lag p50 %.4f ms, p99 %.4f ms", quantile(lag, 0.50), quantile(lag, 0.99))
	}
	return res, nil
}
