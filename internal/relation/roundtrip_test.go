package relation_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/relation/durable"
)

// The round-trip tests pin the column store's one promise to every reader:
// Row(i) is exactly the i-th appended tuple — NaN payloads and negative
// zero bit for bit — no matter where seals, dictionary remaps, segment
// sizes or a durable close and reopen land.

func roundTripSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "kind", Type: relation.Categorical},
		relation.Attribute{Name: "x", Type: relation.Numeric},
		relation.Attribute{Name: "tag", Type: relation.Categorical},
		relation.Attribute{Name: "y", Type: relation.Numeric},
	)
}

var roundTripNums = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8000000000001), // NaN with a payload
	math.Copysign(0, -1),
	0,
	math.Inf(1),
	math.Inf(-1),
	1.5,
	-1e300,
}

// roundTripTuple is row i of the test table. kind takes a new value every
// seventh row, each sorting before every earlier one, so a value new to
// the dictionary keeps arriving after seals and every encoding of it
// remaps the existing codes.
func roundTripTuple(i int) relation.Tuple {
	tags := []string{"", "a", "Ünïcodé", "a,b\"c"}
	return relation.Tuple{
		relation.StringValue(fmt.Sprintf("k%05d", 99999-i/7)),
		relation.NumberValue(roundTripNums[i%len(roundTripNums)]),
		relation.StringValue(tags[(i*5)%len(tags)]),
		relation.NumberValue(float64(i)),
	}
}

func sameBits(a, b relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Str != b[i].Str || math.Float64bits(a[i].Num) != math.Float64bits(b[i].Num) {
			return false
		}
	}
	return true
}

func checkRows(t *testing.T, r *relation.Relation, n int, what string) {
	t.Helper()
	if r.Len() != n {
		t.Fatalf("%s: %d rows, want %d", what, r.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got, want := r.Row(i), roundTripTuple(i); !sameBits(got, want) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got, want)
		}
	}
}

func roundTripRows(segRows int) int {
	switch segRows {
	case 1:
		return 150
	case 64:
		return 300
	}
	return relation.DefaultSegmentRows + 150
}

// TestRowRoundTrip appends through a durable store tracking an in-memory
// relation, reading the columns at scattered points so remaps land after
// seals, then checks every row of the relation, of a Project copy, and of
// the store reopened from disk.
func TestRowRoundTrip(t *testing.T) {
	for _, segRows := range []int{1, 64, relation.DefaultSegmentRows} {
		t.Run(fmt.Sprintf("segRows=%d", segRows), func(t *testing.T) {
			n := roundTripRows(segRows)
			dir := t.TempDir()
			r := relation.New("rt", roundTripSchema())
			st, err := durable.Create(dir, r.Schema(), durable.Options{SegmentRows: segRows, Sync: durable.SyncNone, Track: r})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := st.Append(roundTripTuple(i)); err != nil {
					t.Fatal(err)
				}
				if i%61 == 0 || i == segRows || i == segRows+7 {
					// Encode the pending cells now: the next new kind then
					// remaps codes that a seal has already covered.
					if _, err := r.CatColumn("kind"); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkRows(t, r, n, "in memory")
			p, err := relation.Project(r, "kind", "x", "tag", "y")
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, p, n, "projected")
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := durable.Open(dir, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			back, err := st2.Relation("rt")
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, back, n, "reopened")
			if got, want := back.StorageStats().SealedRows, n/segRows*segRows; got != want {
				t.Fatalf("reopened relation sealed %d rows, want %d", got, want)
			}
		})
	}
}

// TestRowRoundTripConcurrent races one appender against readers of Len,
// Row, CatColumn and Select; run it under -race. Every reader check is
// against roundTripTuple, never against the relation itself.
func TestRowRoundTripConcurrent(t *testing.T) {
	for _, segRows := range []int{1, 64, relation.DefaultSegmentRows} {
		t.Run(fmt.Sprintf("segRows=%d", segRows), func(t *testing.T) {
			n := roundTripRows(segRows)
			r := relation.New("rt", roundTripSchema())
			if err := r.SetSegmentRows(segRows); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := 0; i < n; i++ {
					r.MustAppend(roundTripTuple(i))
				}
			}()
			pred := relation.NewAnd(relation.NewIn("tag", "a"), relation.NewRange("y", 0, 1e9))
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for {
						select {
						case <-done:
							return
						default:
						}
						k := r.Len()
						if k == 0 {
							continue
						}
						i := rng.Intn(k)
						if got, want := r.Row(i), roundTripTuple(i); !sameBits(got, want) {
							t.Errorf("row %d = %v, want %v", i, got, want)
							return
						}
						col, err := r.CatColumn("kind")
						if err != nil || len(col.Codes) < k || col.Value(k-1) != roundTripTuple(k - 1)[0].Str {
							t.Errorf("kind column does not cover row %d: %v", k-1, err)
							return
						}
						for _, j := range r.Select(pred) {
							if !pred.Matches(r.Schema(), roundTripTuple(j)) {
								t.Errorf("Select returned non-matching row %d", j)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			checkRows(t, r, n, "quiesced")
		})
	}
}
