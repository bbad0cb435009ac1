package repro

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/relation"
)

// formattedBaseKey is the cache base key spelled with fmt, field for field:
// the reference appendBaseKey must reproduce byte for byte, so the key keeps
// its fields, separators and injectivity.
func formattedBaseKey(s *System, q *Query, tech Technique, opts Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s|%d|%d|%s|%t|%t|%d|%d|%t|%t|%d|%d|%s",
		tech, opts.M, relation.SigNum(opts.K), relation.SigNum(opts.X),
		opts.MaxBuckets, opts.MinBucket, relation.SigNum(opts.Frac),
		opts.AutoBuckets, opts.EquiDepth, opts.MaxZeroCandidates, opts.MaxLevels,
		opts.Parallel, opts.CandidateAttrs != nil, opts.MaxCategories, opts.MinCondSupport,
		strings.Join(opts.CandidateAttrs, "\x1f"))
	return fmt.Sprintf("%s\x1e%x\x1e%d", q.Signature(), h.Sum64(), s.rel.DataGeneration())
}

func TestCacheKeyMatchesFormattedReference(t *testing.T) {
	sys, err := NewSystem(DemoDataset(200, 1), Config{WorkloadSQL: DemoWorkloadSQL(200, 2), TreeCacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("SELECT * FROM ListProperty WHERE price BETWEEN 150000 AND 400000 AND bedrooms >= 2")
	if err != nil {
		t.Fatal(err)
	}
	optSets := []Options{
		{},
		{M: 20, K: 0.5, X: 0.25, Frac: 0.1},
		{K: -0.0, X: 1e21, Frac: 1.5e-7, MaxBuckets: -3, MinBucket: 7},
		{AutoBuckets: true, EquiDepth: true, Parallel: true, MaxZeroCandidates: 4, MaxLevels: 2},
		{CandidateAttrs: []string{}},
		{CandidateAttrs: []string{"price", "bedrooms"}, MaxCategories: 12, MinCondSupport: 5},
		{CandidateAttrs: []string{"price\x1fbedrooms"}, Shards: 4},
	}
	for _, tech := range []Technique{CostBased, AttrCost, NoCost} {
		for i, opts := range optSets {
			want := formattedBaseKey(sys, q, tech, opts)
			if got := sys.cacheBaseKey(q, tech, opts); got != want {
				t.Errorf("tech %v opts %d: base key %q; want %q", tech, i, got, want)
			}
			if got, want := sys.cacheKey(q, tech, opts), fmt.Sprintf("%s\x1e%d", want, sys.gen); got != want {
				t.Errorf("tech %v opts %d: key %q; want %q", tech, i, got, want)
			}
		}
	}
}

// TestStoreBody pins the stored-body contract at the System layer: a miss
// stores nothing, the first hit's body is kept for its render bounds only,
// a later body never displaces it, and its bytes are charged to the cache.
func TestStoreBody(t *testing.T) {
	sys, err := NewSystem(DemoDataset(1000, 1), Config{
		WorkloadSQL:      DemoWorkloadSQL(500, 2),
		Intervals:        DemoIntervals(),
		TreeCacheEntries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("SELECT * FROM ListProperty WHERE price BETWEEN 150000 AND 400000")
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := RenderBounds{MaxDepth: 2, MaxChildren: 8}, RenderBounds{MaxDepth: 3}

	miss, err := sys.ServeParsedWith(context.Background(), q, CostBased, Options{}, ServePolicy{})
	if err != nil || miss.Hit {
		t.Fatalf("first serve: hit=%v err=%v; want a miss", miss.Hit, err)
	}
	bytes0 := sys.CacheStats().Bytes
	sys.StoreBody(miss, b1, []byte("miss body"))
	if got := sys.CacheStats().Bytes; got != bytes0 {
		t.Fatalf("a miss stored a body: cache bytes %d -> %d", bytes0, got)
	}

	hit, ok := sys.Peek(q, CostBased, Options{})
	if !ok || !hit.Hit || hit.Tree != miss.Tree {
		t.Fatalf("Peek = %+v, %v; want a hit on the cached tree", hit, ok)
	}
	if _, ok := hit.Body(b1); ok {
		t.Fatal("a fresh entry reported a stored body")
	}
	first := []byte("first body")
	sys.StoreBody(hit, b1, first)
	if got, want := sys.CacheStats().Bytes, bytes0+int64(len(first)); got != want {
		t.Fatalf("cache bytes after StoreBody = %d; want %d", got, want)
	}
	sys.StoreBody(hit, b2, []byte("a racing body for other bounds"))

	again, ok := sys.Peek(q, CostBased, Options{})
	if !ok {
		t.Fatal("entry lost after StoreBody")
	}
	if body, ok := again.Body(b1); !ok || !bytes.Equal(body, first) {
		t.Fatalf("Body(b1) = %q, %v; want the first stored body", body, ok)
	}
	if _, ok := again.Body(b2); ok {
		t.Fatal("Body answered for bounds no body was rendered under")
	}
	sys.StoreBody(again, b2, []byte("second"))
	if body, ok := mustPeek(t, sys, q).Body(b1); !ok || !bytes.Equal(body, first) {
		t.Fatalf("a later StoreBody displaced the first body: %q, %v", body, ok)
	}
	if got, want := sys.CacheStats().Bytes, bytes0+int64(len(first)); got != want {
		t.Fatalf("cache bytes = %d; want %d (one body per entry)", got, want)
	}
}

func mustPeek(t *testing.T, sys *System, q *Query) ServeOutcome {
	t.Helper()
	out, ok := sys.Peek(q, CostBased, Options{})
	if !ok {
		t.Fatal("Peek missed a cached tree")
	}
	return out
}
