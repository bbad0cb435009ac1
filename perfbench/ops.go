package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/datagen"
)

// The serving set-up every workload shares: catserve's defaults.
const (
	datasetRows  = 100000 // demo dataset (catserve -rows)
	logQueries   = 10000  // demo workload log (catserve -queries)
	cacheEntries = 256
	cacheBytes   = 64 << 20
	maxDepth     = 6   // server render bound
	maxChildren  = 200 // server render bound
	reqMaxDepth  = 3   // sent with every request, as catload does
	mixSize      = 64  // distinct queries in the hot, learn and ingest mix

	ingestPreload = 20000 // rows appended during ingest set-up
	ingestRate    = 2000  // open-loop appends per second

	// coldRate bounds how many distinct queries per second of run the cold
	// workload can consume; the stream is generated before timing starts.
	coldRate = 1500
)

// What the seed varies. The dataset and the workload log are catserve's
// defaults (-seed 1: dataset seed 1, log seed 2) and the query sets come
// from fixed generator seeds; the seed orders the op streams and draws the
// rows ingest appends. Every seed thus does the same work in a different
// order. Seeding the data or the query sets instead moves a run's cost by
// more than the bounds this benchmark gates on: a 64-query mix is a small
// sample of the generator, and a few broad queries, whose trees change with
// the data draw, dominate its cost.
const (
	datasetSeed = 1
	logSeed     = 2
	mixGenSeed  = 1001
	coldGenSeed = 1002
	// coldBlock is the span within which the seed shuffles the cold stream,
	// so a run's prefix holds nearly the same queries whatever the seed.
	coldBlock = 64
)

func rowsSeed(seed int64) int64 { return seed + 3 }

// ops is one workload's generated input: the read op stream (op i sends
// reads[i % len(reads)]) and, for ingest, the rows to append (the first
// ingestPreload during set-up, the rest by the open-loop writer).
type ops struct {
	reads []string
	rows  []repro.Tuple
}

// makeOps generates the op stream for a workload run of the given length.
// The same (workload, seed, seconds) always yields identical ops.
func makeOps(workload string, seed int64, seconds int) (*ops, error) {
	switch workload {
	case "hot", "learn":
		mix, err := distinctQueries(mixGenSeed, mixSize)
		return &ops{reads: shuffle(mix, seed, len(mix))}, err
	case "cold":
		qs, err := distinctQueries(coldGenSeed, coldRate*seconds)
		return &ops{reads: shuffle(qs, seed, coldBlock)}, err
	case "ingest":
		mix, err := distinctQueries(mixGenSeed, mixSize)
		if err != nil {
			return nil, err
		}
		return &ops{reads: shuffle(mix, seed, len(mix)), rows: generateRows(rowsSeed(seed), ingestPreload+ingestRate*seconds)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// shuffle permutes xs in place within consecutive blocks of the given size,
// seeded by seed, and returns it.
func shuffle(xs []string, seed int64, block int) []string {
	rng := rand.New(rand.NewSource(seed))
	for lo := 0; lo < len(xs); lo += block {
		b := xs[lo:min(lo+block, len(xs))]
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	return xs
}

// distinctQueries returns the first n queries of the workload generator's
// stream for genSeed whose canonical signatures are pairwise distinct, so
// no two of them can share a tree-cache entry.
func distinctQueries(genSeed int64, n int) ([]string, error) {
	for m := n + n/4 + 64; ; m *= 2 {
		sqls := datagen.WorkloadSQL(datagen.WorkloadConfig{Queries: m, Seed: genSeed})
		seen := make(map[string]bool, n)
		out := make([]string, 0, n)
		for _, s := range sqls {
			q, err := repro.ParseQuery(s)
			if err != nil {
				return nil, fmt.Errorf("generated query %q: %w", s, err)
			}
			if sig := q.Signature(); !seen[sig] {
				seen[sig] = true
				if out = append(out, s); len(out) == n {
					return out, nil
				}
			}
		}
		if m > 16*n {
			return nil, fmt.Errorf("generator seed %d yields only %d distinct queries", genSeed, len(out))
		}
	}
}

// generateRows returns n rows of the demo dataset's shape.
func generateRows(genSeed int64, n int) []repro.Tuple {
	rows := make([]repro.Tuple, 0, n)
	// Stream fails only when the callback does.
	_ = datagen.Stream(datagen.DatasetConfig{Rows: n, Seed: genSeed}, func(_ int, t repro.Tuple) error {
		rows = append(rows, t)
		return nil
	})
	return rows
}

// rowSchema is the schema generateRows' tuples follow.
func rowSchema() *repro.Schema { return datagen.Schema(datagen.DatasetConfig{}) }

// requestBody is the /v1/query payload for one query.
func requestBody(sql string) []byte {
	b, err := json.Marshal(struct {
		SQL      string `json:"sql"`
		MaxDepth int    `json:"maxDepth"`
	}{sql, reqMaxDepth})
	if err != nil {
		panic(err) // unreachable: a string and an int always marshal
	}
	return b
}

func requestBodies(sqls []string) [][]byte {
	out := make([][]byte, len(sqls))
	for i, s := range sqls {
		out[i] = requestBody(s)
	}
	return out
}
