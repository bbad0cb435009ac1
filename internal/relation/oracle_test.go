package relation

import (
	"math/rand"
	"testing"
)

// tracked is a relation under test plus every tuple appended to it, kept in
// a plain slice. The slice is the oracle: expected answers are computed
// from it with Predicate.Matches, never from the relation's own columns,
// so a test cannot check the columns against themselves.
type tracked struct {
	*Relation
	rows []Tuple
}

func newTracked(r *Relation) *tracked { return &tracked{Relation: r} }

// add appends t to both the relation and the oracle.
func (tr *tracked) add(t Tuple) {
	tr.MustAppend(t)
	tr.rows = append(tr.rows, t)
}

// want is the reference answer: the ascending ids of the appended tuples
// satisfying pred.
func (tr *tracked) want(pred Predicate) []int {
	out := []int{}
	for i, t := range tr.rows {
		if pred.Matches(tr.Schema(), t) {
			out = append(out, i)
		}
	}
	return out
}

var testHoods = []string{"Bellevue, WA", "Redmond, WA", "Seattle, WA", "Issaquah, WA"}

// homeTuple draws one row of the three-attribute homes table.
func homeTuple(rng *rand.Rand) Tuple {
	return Tuple{
		StringValue(testHoods[rng.Intn(len(testHoods))]),
		NumberValue(float64(200000 + rng.Intn(50)*5000)),
		NumberValue(float64(1 + rng.Intn(6))),
	}
}

func homesTestSchema() *Schema {
	return MustSchema(
		Attribute{Name: "neighborhood", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
		Attribute{Name: "bedrooms", Type: Numeric},
	)
}

// relationOfSize builds an n-row homes relation from a seeded generator.
func relationOfSize(n int, seed int64) *tracked {
	rng := rand.New(rand.NewSource(seed))
	tr := newTracked(New("homes", homesTestSchema()))
	for i := 0; i < n; i++ {
		tr.add(homeTuple(rng))
	}
	return tr
}

// segTestRelation builds a relation with the given segment size, appending
// n rows from a fixed-seed generator, so two relations with different
// segment sizes hold identical rows.
func segTestRelation(t *testing.T, segRows, n int) *tracked {
	t.Helper()
	tr := newTracked(New("homes", homesTestSchema()))
	if segRows > 0 {
		if err := tr.SetSegmentRows(segRows); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		tr.add(homeTuple(rng))
	}
	return tr
}

func sameRows(t *testing.T, got, want []int, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d\ngot:  %v\nwant: %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}
