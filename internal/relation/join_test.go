package relation

import "testing"

func TestJoinStarSchema(t *testing.T) {
	fact := New("listings", MustSchema(
		Attribute{Name: "hoodid", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
	))
	fact.MustAppend(Tuple{StringValue("h1"), NumberValue(250000)})
	fact.MustAppend(Tuple{StringValue("h2"), NumberValue(300000)})
	fact.MustAppend(Tuple{StringValue("h3"), NumberValue(100000)}) // no dim match
	fact.MustAppend(Tuple{StringValue("h1"), NumberValue(275000)})

	dim := New("hoods", MustSchema(
		Attribute{Name: "id", Type: Categorical},
		Attribute{Name: "name", Type: Categorical},
		Attribute{Name: "walkscore", Type: Numeric},
	))
	dim.MustAppend(Tuple{StringValue("h1"), StringValue("Bellevue"), NumberValue(70)})
	dim.MustAppend(Tuple{StringValue("h2"), StringValue("Seattle"), NumberValue(90)})

	wide, err := Join(fact, "hoodid", dim, "id")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if wide.Len() != 3 {
		t.Fatalf("joined rows = %d; want 3 (inner join drops h3)", wide.Len())
	}
	if wide.Schema().Len() != 4 {
		t.Fatalf("joined schema width = %d; want 4", wide.Schema().Len())
	}
	pos, ok := wide.Schema().Lookup("name")
	if !ok {
		t.Fatal("dimension attribute missing from joined schema")
	}
	if wide.Row(0)[pos].Str != "Bellevue" || wide.Row(1)[pos].Str != "Seattle" {
		t.Fatalf("dimension values misaligned: %v %v", wide.Row(0)[pos], wide.Row(1)[pos])
	}
	// The wide table is selectable like any relation.
	got := wide.Select(NewIn("name", "Bellevue"))
	if len(got) != 2 {
		t.Fatalf("select over joined relation = %v", got)
	}
}

func TestJoinErrors(t *testing.T) {
	fact := New("f", MustSchema(
		Attribute{Name: "k", Type: Categorical},
		Attribute{Name: "v", Type: Numeric},
	))
	dimDup := New("d", MustSchema(
		Attribute{Name: "k", Type: Categorical},
		Attribute{Name: "extra", Type: Numeric},
	))
	dimDup.MustAppend(Tuple{StringValue("a"), NumberValue(1)})
	dimDup.MustAppend(Tuple{StringValue("a"), NumberValue(2)})
	if _, err := Join(fact, "k", dimDup, "k"); err == nil {
		t.Error("duplicate dimension key should error")
	}
	if _, err := Join(fact, "missing", dimDup, "k"); err == nil {
		t.Error("missing fact key should error")
	}
	if _, err := Join(fact, "k", dimDup, "missing"); err == nil {
		t.Error("missing dim key should error")
	}
	dimNum := New("d2", MustSchema(
		Attribute{Name: "k", Type: Numeric},
		Attribute{Name: "x", Type: Numeric},
	))
	if _, err := Join(fact, "k", dimNum, "k"); err == nil {
		t.Error("key type mismatch should error")
	}
}

func TestJoinNameCollision(t *testing.T) {
	fact := New("f", MustSchema(
		Attribute{Name: "k", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
	))
	fact.MustAppend(Tuple{StringValue("a"), NumberValue(10)})
	dim := New("d", MustSchema(
		Attribute{Name: "id", Type: Categorical},
		Attribute{Name: "price", Type: Numeric}, // collides with fact.price
	))
	dim.MustAppend(Tuple{StringValue("a"), NumberValue(99)})
	wide, err := Join(fact, "k", dim, "id")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if _, ok := wide.Schema().Lookup("d_price"); !ok {
		t.Fatalf("collided attribute not prefixed: %v", wide.Schema().Attrs())
	}
}

func TestProject(t *testing.T) {
	r := relationOfSize(10, 3)
	p, err := Project(r.Relation, "price", "neighborhood")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Schema().Len() != 2 || p.Len() != 10 {
		t.Fatalf("projection shape %d×%d", p.Len(), p.Schema().Len())
	}
	if p.Schema().Attr(0).Name != "price" {
		t.Fatal("projection order not honored")
	}
	for i := 0; i < p.Len(); i++ {
		want := Tuple{r.rows[i][1], r.rows[i][0]}
		if got := p.Row(i); got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
	}
	if _, err := Project(r.Relation, "nope"); err == nil {
		t.Error("projecting a missing attribute should error")
	}
	if _, err := Project(r.Relation); err == nil {
		t.Error("empty projection should error")
	}
	if _, err := Project(r.Relation, "price", "price"); err == nil {
		t.Error("duplicate projection should error")
	}
}
