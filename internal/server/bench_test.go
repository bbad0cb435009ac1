package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro"
)

// Serving-path benchmarks over httptest: the full HTTP round trip including
// JSON decode, serve (cache hit or categorize), tree render, and encode.

var (
	benchOnce sync.Once
	benchSys  map[bool]*repro.System // keyed by cached
)

func benchServer(b *testing.B, cached bool) *httptest.Server {
	b.Helper()
	benchOnce.Do(func() {
		benchSys = make(map[bool]*repro.System)
		for _, c := range []bool{false, true} {
			benchSys[c] = newServeSystem(b, c)
		}
	})
	srv, err := New(Config{System: benchSys[cached], MaxDepth: 3, MaxChildren: 8})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	return hs
}

func benchPost(b *testing.B, client *http.Client, url string, raw []byte) {
	b.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
}

func benchQuery(b *testing.B, cached bool, parallel bool) {
	hs := benchServer(b, cached)
	raw, _ := json.Marshal(queryRequest{SQL: spellings[0], MaxDepth: 3})
	// Warm: the first request computes the tree; the cached variant then
	// measures the hit path, the uncached variant the full categorization.
	benchPost(b, http.DefaultClient, hs.URL+"/v1/query", raw)
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			client := &http.Client{}
			for pb.Next() {
				benchPost(b, client, hs.URL+"/v1/query", raw)
			}
		})
		return
	}
	for i := 0; i < b.N; i++ {
		benchPost(b, http.DefaultClient, hs.URL+"/v1/query", raw)
	}
}

func BenchmarkQueryEndpoint(b *testing.B) {
	b.Run("uncached", func(b *testing.B) { benchQuery(b, false, false) })
	b.Run("cached", func(b *testing.B) { benchQuery(b, true, false) })
}

func BenchmarkQueryEndpointParallel(b *testing.B) {
	b.Run("uncached", func(b *testing.B) { benchQuery(b, false, true) })
	b.Run("cached", func(b *testing.B) { benchQuery(b, true, true) })
}

// BenchmarkQueryEndpointMix cycles distinct queries so the cached variant
// exercises LRU lookups across entries, not one hot key.
func BenchmarkQueryEndpointMix(b *testing.B) {
	mixBodies := func() [][]byte {
		sqls := append(append([]string{}, spellings...), distinctSQL...)
		out := make([][]byte, len(sqls))
		for i, sql := range sqls {
			out[i], _ = json.Marshal(queryRequest{SQL: sql, MaxDepth: 3})
		}
		return out
	}
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			hs := benchServer(b, cached)
			bodies := mixBodies()
			for _, raw := range bodies {
				benchPost(b, http.DefaultClient, hs.URL+"/v1/query", raw)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, http.DefaultClient, hs.URL+"/v1/query", bodies[i%len(bodies)])
			}
		})
	}
}
