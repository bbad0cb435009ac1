package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/sqlparse"
)

func warmFixture(t *testing.T) *AdaptiveSystem {
	t.Helper()
	rel := DemoDataset(2000, 1)
	sys, err := NewSystem(rel, Config{
		WorkloadSQL:      DemoWorkloadSQL(1500, 2),
		Intervals:        DemoIntervals(),
		TreeCacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Adaptive()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// bareWarmer builds a Warmer without starting its loop, for tests that drive
// warmCycle synchronously.
func bareWarmer(a *AdaptiveSystem, cfg WarmerConfig) *Warmer {
	if cfg.Budget <= 0 {
		cfg.Budget = defaultWarmBudget
	}
	return &Warmer{
		a:      a,
		cfg:    cfg,
		counts: make(map[string]*warmSig),
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func mustParse(t *testing.T, sql string) *sqlparse.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestWarmCycleWarmsTopSignatures drives one synchronous cycle and checks the
// hottest signatures land in the cache while colder ones do not.
func TestWarmCycleWarmsTopSignatures(t *testing.T) {
	a := warmFixture(t)
	w := bareWarmer(a, WarmerConfig{TopK: 2})

	hot := mustParse(t, "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND price BETWEEN 200000 AND 400000")
	warm2 := mustParse(t, "SELECT * FROM ListProperty WHERE bedrooms BETWEEN 2 AND 4")
	cold := mustParse(t, "SELECT * FROM ListProperty WHERE propertytype = 'Condo'")
	w.observe([]*sqlparse.Query{hot, hot, hot, warm2, warm2, cold})

	w.warmCycle()

	sys := a.System()
	if _, ok := sys.Peek(hot, CostBased, Options{}); !ok {
		t.Errorf("hottest signature not warmed")
	}
	if _, ok := sys.Peek(warm2, CostBased, Options{}); !ok {
		t.Errorf("second signature not warmed")
	}
	if _, ok := sys.Peek(cold, CostBased, Options{}); ok {
		t.Errorf("signature outside top-K was warmed")
	}
	if s := w.snapshot(); s.Warmed != 2 || s.Cycles != 1 || s.Tracked != 3 {
		t.Errorf("stats = %+v, want warmed=2 cycles=1 tracked=3", s)
	}

	// A warmed signature served on the foreground path is a pure hit.
	out, err := sys.ServeParsedWith(context.Background(), hot, CostBased, Options{}, ServePolicy{})
	if err != nil || !out.Hit {
		t.Errorf("foreground serve after warming: hit=%v err=%v", out.Hit, err)
	}
}

// TestWarmCycleRespectsBusyLimiter pins the never-shed-foreground invariant:
// with every admission slot held (or a queue formed), warming must do
// nothing — no queueing, no shedding, just a Busy count.
func TestWarmCycleRespectsBusyLimiter(t *testing.T) {
	a := warmFixture(t)
	lim := resilience.NewLimiter(1, 4)
	release, err := lim.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	w := bareWarmer(a, WarmerConfig{TopK: 1, Limiter: lim})
	q := mustParse(t, "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')")
	w.observe([]*sqlparse.Query{q})
	w.warmCycle()

	if _, ok := a.System().Peek(q, CostBased, Options{}); ok {
		t.Errorf("warmed through a saturated limiter")
	}
	s := w.snapshot()
	if s.Busy != 1 || s.Warmed != 0 {
		t.Errorf("stats = %+v, want busy=1 warmed=0", s)
	}
	if ls := lim.Stats(); ls.QueueDepth != 0 || ls.Shed != 0 {
		t.Errorf("warming queued or shed on the limiter: %+v", ls)
	}
}

// TestWarmCycleSkipsWithinEpsilon: a second cycle with no statistics movement
// is a no-op, and drift below the epsilon threshold also is.
func TestWarmCycleSkipsWithinEpsilon(t *testing.T) {
	a := warmFixture(t)
	w := bareWarmer(a, WarmerConfig{TopK: 1, Epsilon: 0.5})
	q := mustParse(t, "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')")
	w.observe([]*sqlparse.Query{q})

	w.warmCycle()
	if s := w.snapshot(); s.Cycles != 1 || s.SkippedCycles != 0 {
		t.Fatalf("first cycle: %+v", s)
	}
	// No learn between cycles: identical snapshot, skipped.
	w.warmCycle()
	if s := w.snapshot(); s.Cycles != 1 || s.SkippedCycles != 1 {
		t.Fatalf("identical-stats cycle not skipped: %+v", s)
	}
	// One learned query against a 1500-query workload is far under a 50%
	// relative epsilon: still skipped.
	if err := a.Learn("SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')"); err != nil {
		t.Fatal(err)
	}
	w.warmCycle()
	if s := w.snapshot(); s.Cycles != 1 || s.SkippedCycles != 2 {
		t.Fatalf("sub-epsilon drift cycle not skipped: %+v", s)
	}

	// Already-cached signatures count as AlreadyCached, not re-warmed.
	w2 := bareWarmer(a, WarmerConfig{TopK: 1})
	w2.observe([]*sqlparse.Query{q})
	w2.warmCycle()
	if s := w2.snapshot(); s.AlreadyCached+s.Warmed != 1 {
		t.Fatalf("second warmer: %+v", s)
	}
}

// TestWarmerLifecycle exercises the real background loop end to end: start,
// learn, observe the warm landing, stop.
func TestWarmerLifecycle(t *testing.T) {
	a := warmFixture(t)
	w := a.StartWarmer(WarmerConfig{TopK: 4})
	if w == nil {
		t.Fatal("StartWarmer returned nil")
	}
	if dup := a.StartWarmer(WarmerConfig{TopK: 4}); dup != nil {
		t.Fatal("second StartWarmer did not refuse")
	}
	defer a.StopWarmer()

	sql := "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND price BETWEEN 250000 AND 450000"
	q := mustParse(t, sql)
	if err := a.Learn(sql); err != nil {
		t.Fatal(err)
	}
	// The warmer stores the tree before it counts the build, so wait for
	// both.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, cached := a.System().Peek(q, CostBased, Options{})
		if s, ok := a.WarmerStats(); cached && ok && s.Warmed > 0 {
			break
		}
		if time.Now().After(deadline) {
			s, ok := a.WarmerStats()
			t.Fatalf("warmer never cached and counted the learned signature: cached=%v stats ok=%v %+v", cached, ok, s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.StopWarmer()
	if _, ok := a.WarmerStats(); ok {
		t.Fatal("stats still available after StopWarmer")
	}
	a.StopWarmer() // idempotent
	if w := a.StartWarmer(WarmerConfig{TopK: 0}); w != nil {
		t.Fatal("TopK=0 should disable warming")
	}
}
