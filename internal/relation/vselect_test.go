package relation

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func TestBitmapBasics(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		b := NewBitmap(n)
		if b.Count() != 0 || b.Len() != n {
			t.Fatalf("n=%d: fresh bitmap count=%d len=%d", n, b.Count(), b.Len())
		}
		b.SetAll()
		if b.Count() != n {
			t.Fatalf("n=%d: SetAll count=%d", n, b.Count())
		}
		rows := b.Rows()
		if len(rows) != n {
			t.Fatalf("n=%d: Rows len=%d", n, len(rows))
		}
		for i, v := range rows {
			if v != i {
				t.Fatalf("n=%d: Rows[%d]=%d", n, i, v)
			}
		}
	}
	b := NewBitmap(200)
	set := []int{0, 1, 63, 64, 127, 128, 199}
	for _, i := range set {
		b.Set(i)
	}
	for _, i := range set {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(2) || b.Get(150) {
		t.Fatal("unset bit reads as set")
	}
	if got := b.Rows(); !reflect.DeepEqual(got, set) {
		t.Fatalf("Rows = %v, want %v", got, set)
	}
	o := NewBitmap(200)
	o.Set(63)
	o.Set(64)
	o.Set(100)
	c := b.Clone()
	if n := c.And(o); n != 2 {
		t.Fatalf("And count = %d, want 2", n)
	}
	if got := c.Rows(); !reflect.DeepEqual(got, []int{63, 64}) {
		t.Fatalf("And rows = %v", got)
	}
	c2 := b.Clone()
	if n := c2.AndNot(o); n != 5 {
		t.Fatalf("AndNot count = %d, want 5", n)
	}
	if got := c2.Rows(); !reflect.DeepEqual(got, []int{0, 1, 127, 128, 199}) {
		t.Fatalf("AndNot rows = %v", got)
	}
	// Clone independence.
	if b.Count() != 7 {
		t.Fatalf("source bitmap mutated by clone ops: count=%d", b.Count())
	}
}

// TestVectorSelectMatchesReference drives the vectorized engine across the
// conjunct shapes and checks exact row-list equality with the oracle over
// the appended tuples, twice per predicate so the warm (conjunct-cache hit)
// path is verified too.
func TestVectorSelectMatchesReference(t *testing.T) {
	r := relationOfSize(700, 11)
	preds := []Predicate{
		NewIn("neighborhood", "Seattle, WA"),
		NewIn("neighborhood", "Seattle, WA", "Bellevue, WA", "Nowhere"),
		NewIn("NEIGHBORHOOD", "Issaquah, WA"), // case-insensitive attr
		NewIn("neighborhood"),                 // empty IN list
		NewIn("missing", "x"),                 // unknown attribute
		NewIn("price", "200000"),              // type mismatch
		NewRange("price", 210000, 300000),
		NewClosedRange("price", 210000, 300000),
		NewRange("price", math.Inf(-1), 250000),
		NewClosedRange("price", 250000, math.Inf(1)),
		NewClosedRange("price", 300000, 200000), // empty interval
		NewClosedRange("bedrooms", 2, 4),
		NewRange("missing", 0, 1),
		NewRange("neighborhood", 0, 1), // type mismatch
		NewAnd(NewIn("neighborhood", "Seattle, WA", "Redmond, WA"), NewClosedRange("price", 220000, 340000)),
		NewAnd(NewIn("neighborhood", "Seattle, WA"), NewClosedRange("price", 220000, 340000), NewClosedRange("bedrooms", 1, 3)),
		NewAnd(), // empty conjunction = TRUE
		NewAnd(True{}, NewClosedRange("bedrooms", 2, 2)),
		NewAnd(NewRange("price", 200000, 260000), NewRange("price", 240000, 320000)), // same attr twice
	}
	for _, pred := range preds {
		want := r.want(pred)
		for pass := 0; pass < 2; pass++ {
			sameRows(t, r.vectorSelect(pred), want, pred.String())
			sameRows(t, r.Select(pred), want, "Select: "+pred.String())
		}
	}
	// True alone goes through Select's nil-free path too.
	sameRows(t, r.Select(True{}), r.want(True{}), "TRUE")
}

func TestSelectResultsSorted(t *testing.T) {
	r := relationOfSize(500, 7)
	pred := NewAnd(NewIn("neighborhood", "Seattle, WA", "Bellevue, WA"), NewRange("price", 220000, 380000))
	got := r.Select(pred)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("select not in ascending row order at %d: %v", i, got[:i+1])
		}
	}
	sameRows(t, got, r.want(pred), "sorted select")
}

// TestConjunctCacheHitMissEviction exercises the bounded LRU: repeated
// conjuncts hit, distinct conjuncts past the cap evict coldest-first, and
// the counters track it all.
func TestConjunctCacheHitMissEviction(t *testing.T) {
	r := relationOfSize(300, 5)
	pred := NewAnd(NewIn("neighborhood", "Seattle, WA"), NewClosedRange("price", 210000, 320000))
	want := r.want(pred)

	sameRows(t, r.Select(pred), want, "cold")
	s := r.SelectStats()
	if s.ConjunctMisses != 2 || s.ConjunctHits != 0 || s.ConjunctEntries != 2 {
		t.Fatalf("after cold select: %+v", s)
	}
	sameRows(t, r.Select(pred), want, "warm")
	s = r.SelectStats()
	if s.ConjunctHits != 2 || s.ConjunctMisses != 2 {
		t.Fatalf("after warm select: %+v", s)
	}
	// A spelling-variant of the same conjuncts must hit, not miss: the cache
	// keys on canonical signatures.
	variant := NewAnd(NewClosedRange("PRICE", 210000, 320000), NewIn("NeighborHood", "Seattle, WA", "Seattle, WA"))
	sameRows(t, r.Select(variant), want, "variant")
	s = r.SelectStats()
	if s.ConjunctHits != 4 || s.ConjunctMisses != 2 {
		t.Fatalf("spelling variant missed the cache: %+v", s)
	}

	// Flood with distinct range conjuncts to exceed the cap.
	for i := 0; i <= maxConjunctBitmaps; i++ {
		r.Select(NewClosedRange("price", float64(i), float64(i+1)))
	}
	s = r.SelectStats()
	if s.ConjunctEntries != maxConjunctBitmaps {
		t.Fatalf("cache occupancy %d, want cap %d", s.ConjunctEntries, maxConjunctBitmaps)
	}
	// The original conjuncts were the coldest; they must have been evicted,
	// so re-selecting misses and recomputes — and still answers correctly.
	missesBefore := s.ConjunctMisses
	sameRows(t, r.Select(pred), want, "post-eviction")
	if s = r.SelectStats(); s.ConjunctMisses != missesBefore+2 {
		t.Fatalf("evicted conjuncts did not miss: %+v", s)
	}
}

// TestAppendExtendsEverything is the incremental-maintenance regression
// test (DESIGN.md §14): Append must advance the data generation but must
// NOT drop the identity list or cached conjunct bitmaps — every derived
// artifact extends over just the appended rows on its next read, column
// snapshots taken before the append stay as they were, and results stay
// exactly correct.
func TestAppendExtendsEverything(t *testing.T) {
	r := relationOfSize(120, 9)
	pred := NewAnd(NewIn("neighborhood", "Bellevue, WA"), NewClosedRange("price", 200000, 400000))
	id := r.Select(nil)
	if len(id) != 120 {
		t.Fatalf("identity length %d", len(id))
	}
	if &id[0] != &r.Select(nil)[0] {
		t.Fatal("identity list not cached between calls")
	}
	r.Select(pred) // populate the conjunct cache
	entries := r.SelectStats().ConjunctEntries
	if entries == 0 {
		t.Fatal("conjunct cache empty after select")
	}
	gen := r.DataGeneration()
	before, err := r.CatColumn("neighborhood")
	if err != nil {
		t.Fatal(err)
	}

	r.add(Tuple{StringValue("Bellevue, WA"), NumberValue(250000), NumberValue(3)})

	if r.DataGeneration() != gen+1 {
		t.Fatalf("data generation %d, want %d", r.DataGeneration(), gen+1)
	}
	if len(before.Codes) != 120 {
		t.Fatalf("snapshot taken before the append grew to %d codes", len(before.Codes))
	}
	col, err := r.CatColumn("neighborhood")
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Codes) != 121 || col.Value(120) != "Bellevue, WA" {
		t.Fatalf("column not extended over the appended row: %d codes", len(col.Codes))
	}
	if s := r.SelectStats(); s.ConjunctEntries != entries {
		t.Fatalf("Append must keep conjunct bitmaps for extension: %d entries, want %d", s.ConjunctEntries, entries)
	}
	id2 := r.Select(nil)
	if len(id2) != 121 || id2[120] != 120 {
		t.Fatalf("identity not extended after Append: len=%d", len(id2))
	}
	if &id[0] != &id2[0] {
		t.Fatal("identity extension should reuse the backing array in place")
	}
	// Correctness after the mutation: the cached conjuncts must extend (not
	// rebuild, not miss) and cover the appended matching row.
	want := r.want(pred)
	if want[len(want)-1] != 120 {
		t.Fatal("test setup: appended row should match the predicate")
	}
	ext := r.SelectStats().ConjunctExtended
	sameRows(t, r.Select(pred), want, "post-append")
	if s := r.SelectStats(); s.ConjunctExtended != ext+2 {
		t.Fatalf("stale conjuncts should extend, got %d extensions (was %d): %+v", s.ConjunctExtended, ext, s)
	}
	sameRows(t, r.Select(pred), want, "post-append warm")
}

// TestDistinctStringsDictionaryPath checks the code-presence computation
// against a map over the appended tuples, including subset idx lists.
func TestDistinctStringsDictionaryPath(t *testing.T) {
	r := relationOfSize(200, 13)
	for _, idx := range [][]int{{0, 5, 9, 44, 101, 150, 199}, r.Select(nil), {}} {
		seen := map[string]bool{}
		for _, i := range idx {
			seen[r.rows[i][0].Str] = true
		}
		want := make([]string, 0, len(seen))
		for v := range seen {
			want = append(want, v)
		}
		sort.Strings(want)
		got, err := r.DistinctStrings("neighborhood", idx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DistinctStrings = %v, want %v", got, want)
		}
	}
	if _, err := r.DistinctStrings("price", []int{0}); err == nil {
		t.Fatal("numeric attribute must error")
	}
	if _, err := r.DistinctStrings("nope", []int{0}); err == nil {
		t.Fatal("missing attribute must error")
	}
}

// TestChunkScanParallel forces multi-worker chunking (the 1-CPU CI box would
// otherwise run it sequentially) and checks word-aligned boundaries cover
// [0, n) exactly once.
func TestChunkScanParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	n := parallelScanRows + 1000
	var mu sync.Mutex
	covered := make([]bool, n)
	chunkScan(n, func(lo, hi int) {
		if lo%64 != 0 {
			t.Errorf("chunk start %d not word-aligned", lo)
		}
		mu.Lock()
		defer mu.Unlock()
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Fatalf("row %d covered twice", i)
			}
			covered[i] = true
		}
	})
	for i, c := range covered {
		if !c {
			t.Fatalf("row %d never covered", i)
		}
	}
	// And the engine stays correct when scans actually fan out.
	r := relationOfSize(parallelScanRows+500, 17)
	pred := NewAnd(NewIn("neighborhood", "Seattle, WA", "Redmond, WA"), NewClosedRange("price", 220000, 340000))
	sameRows(t, r.Select(pred), r.want(pred), "parallel scan")
}

// TestVectorSelectConcurrent hammers one relation from several goroutines —
// cache hits, misses, and evictions interleaved — and checks every result.
// `make check` runs this under -race.
func TestVectorSelectConcurrent(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	r := relationOfSize(2000, 23)
	preds := make([]Predicate, 0, 24)
	hoods := []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA"}
	for i := 0; i < 12; i++ {
		preds = append(preds,
			NewAnd(NewIn("neighborhood", hoods[i%4], hoods[(i+1)%4]), NewClosedRange("price", float64(200000+i*5000), float64(300000+i*5000))),
			NewClosedRange("bedrooms", float64(1+i%3), float64(3+i%3)),
		)
	}
	wants := make([][]int, len(preds))
	for i, p := range preds {
		wants[i] = r.want(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 60; k++ {
				i := rng.Intn(len(preds))
				got := r.Select(preds[i])
				if !reflect.DeepEqual(got, wants[i]) {
					t.Errorf("goroutine %d: predicate %d wrong result", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSelectStatsTiming checks the wall-time and path counters move.
func TestSelectStatsTiming(t *testing.T) {
	r := relationOfSize(500, 29)
	r.Select(NewIn("neighborhood", "Seattle, WA"))
	s := r.SelectStats()
	if s.Selects != 1 || s.Vectorized != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.SelectNanos == 0 {
		t.Fatal("SelectNanos did not accumulate")
	}
}
