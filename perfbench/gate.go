package main

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is a share of a busy machine. Its speed
// drifts by ±20% over seconds (a fixed CPU loop timed in 5 s windows), far
// more than a perf change worth gating. So an untraced run interleaves its
// timed phase with a speed probe that does not use the program: every cycle
// of cycleLen runs the workload for all but probeLen, drains it, then times
// the probe while none of the program's requests is in flight. The run's
// timing metrics are reported at the reference speed (relative speed 1) by
// scaling them with the probe's mean relative speed over the run; the raw
// values are printed in the notes.
const (
	cycleLen = 500 * time.Millisecond
	probeLen = 100 * time.Millisecond

	// The probe's reference rates: about their medians on a 2-vCPU
	// "Intel(R) Xeon(R) Processor" VM with go1.24.
	refSorts = 3400.0  // sorts of the probe slice per second
	refTrips = 90000.0 // loopback round trips per second

	probeN   = 4096 // length of the slice the probe sorts
	probeMsg = 64   // bytes per round trip
)

var probeSrc = func() []int {
	rng := rand.New(rand.NewSource(7))
	xs := make([]int, probeN)
	for i := range xs {
		xs[i] = rng.Int()
	}
	return xs
}()

// prober times the two kinds of work the serving path is made of, with code
// of its own: a CPU kernel (sorting a fixed slice of ints) and 64-byte round
// trips over a loopback TCP connection to an echo goroutine, which cost
// syscalls and cross-thread wake-ups. Neither allocates, so probing does not
// move the program's garbage collector.
type prober struct {
	buf        []int
	msg        []byte
	conn, peer net.Conn
	echoed     chan struct{}
}

func newProber() (*prober, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept() // nil once the listener is closed
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-accepted
		return nil, err
	}
	peer := <-accepted
	ln.Close()
	if peer == nil {
		conn.Close()
		return nil, errors.New("the speed probe could not accept its own connection")
	}
	p := &prober{buf: make([]int, probeN), msg: make([]byte, probeMsg), conn: conn, peer: peer, echoed: make(chan struct{})}
	go func() {
		defer close(p.echoed)
		b := make([]byte, probeMsg)
		for {
			if _, err := io.ReadFull(peer, b); err != nil {
				return
			}
			if _, err := peer.Write(b); err != nil {
				return
			}
		}
	}()
	return p, nil
}

// close shuts the connection and waits for the echo goroutine.
func (p *prober) close() {
	p.conn.Close()
	p.peer.Close()
	<-p.echoed
}

// speed probes until the deadline, the first half of the time with round
// trips and the rest with sorts, and returns the host's speed relative to
// the reference: the geometric mean of the two rates over their reference
// rates.
func (p *prober) speed(deadline time.Time) (float64, error) {
	start := time.Now()
	half := start.Add(deadline.Sub(start) / 2)
	trips := 0
	for {
		if _, err := p.conn.Write(p.msg); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(p.conn, p.msg); err != nil {
			return 0, err
		}
		trips++
		if !time.Now().Before(half) {
			break
		}
	}
	mid := time.Now()
	sorts := 0
	for {
		copy(p.buf, probeSrc)
		sort.Ints(p.buf)
		sorts++
		if now := time.Now(); !now.Before(deadline) {
			tripRate := float64(trips) / mid.Sub(start).Seconds()
			sortRate := float64(sorts) / now.Sub(mid).Seconds()
			return math.Sqrt(tripRate / refTrips * sortRate / refSorts), nil
		}
	}
}

// gate runs one timed phase. Its workers (closed-loop clients, the ingest
// writer) wrap each operation in enter and leave; enter blocks while a
// probe slice runs and reports false once the phase is over.
type gate struct {
	mu        sync.Mutex
	cond      *sync.Cond
	paused    bool // no operation may start
	idle      bool // paused, and none in flight: a probe slice runs
	stopped   bool
	inflight  int
	start     time.Time
	pausedAt  time.Time
	pausedFor time.Duration // probe slices finished so far
	speeds    []float64     // the probe's relative speed in each slice
	err       error         // the probe's first error
	done      chan struct{}
}

// startGate starts a timed phase of length d. With a prober it cuts d into
// cycles that each end in a probe slice, the last one included; without,
// the workers run the whole of d. Workers return once enter reports false;
// wait returns once the phase is over.
func startGate(d time.Duration, p *prober) *gate {
	g := &gate{start: time.Now(), done: make(chan struct{})}
	g.cond = sync.NewCond(&g.mu)
	go g.control(d, p)
	return g
}

func (g *gate) control(d time.Duration, p *prober) {
	defer close(g.done)
	if p != nil {
		n := max(1, int(d/cycleLen))
		cycle := d / time.Duration(n)
		for k := 1; k <= n; k++ {
			end := g.start.Add(time.Duration(k) * cycle)
			time.Sleep(time.Until(end.Add(-probeLen)))
			g.pause()
			// A slow drain may eat into the slice; probe for at least
			// half of it.
			s, err := p.speed(maxTime(end, time.Now().Add(probeLen/2)))
			if err != nil {
				g.err = err
				break
			}
			g.speeds = append(g.speeds, s)
			if k < n {
				g.resume()
			}
		}
	} else {
		time.Sleep(d)
		g.pause()
	}
	// The phase ends paused, so active stops counting here.
	g.mu.Lock()
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wait returns once the phase is over, with the probe's error if it failed.
func (g *gate) wait() error {
	<-g.done
	return g.err
}

func (g *gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.paused && !g.stopped {
		g.cond.Wait()
	}
	if g.stopped {
		return false
	}
	g.inflight++
	return true
}

func (g *gate) leave() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// enterAt enters once the active clock has reached due.
func (g *gate) enterAt(due time.Duration) bool {
	for g.enter() {
		now := g.active()
		if now >= due {
			return true
		}
		g.leave()
		time.Sleep(due - now)
	}
	return false
}

// active returns the phase's time outside probe slices so far: the clock
// the ingest writer schedules its appends on and, once the phase is over,
// the time its throughput is taken over.
func (g *gate) active() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := time.Since(g.start) - g.pausedFor
	if g.idle {
		d -= time.Since(g.pausedAt)
	}
	return d
}

// pause stops new operations and waits for those in flight; the time they
// take still counts as active.
func (g *gate) pause() {
	g.mu.Lock()
	g.paused = true
	for g.inflight > 0 {
		g.cond.Wait()
	}
	g.idle = true
	g.pausedAt = time.Now()
	g.mu.Unlock()
}

func (g *gate) resume() {
	g.mu.Lock()
	g.paused, g.idle = false, false
	g.pausedFor += time.Since(g.pausedAt)
	g.cond.Broadcast()
	g.mu.Unlock()
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
