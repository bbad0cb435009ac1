package relation

// Sharding. A Shard is an immutable view of a contiguous span of a
// Relation's rows — no data is copied. Shards exist so the categorizer can
// fan per-node counting work out across GOMAXPROCS workers and merge the
// per-shard results exactly (the partition counts and cost sums it computes
// are associative; see internal/category/shard.go and DESIGN.md §12).
//
// Contiguous spans rather than hash partitions keep every shared artifact
// reusable as a plain subslice: the dictionary codes of a CatColumn, the
// dense values of a NumColumn, and a sorted row list all restrict to a shard
// by slicing [Lo, Hi). Conjunct bitmaps and the bounded bitmap cache stay on
// the parent relation — Shard.Select runs the parent's vectorized engine
// once and slices the (sorted) result to the span, so shards share cache
// hits instead of each paying a build.
//
// Shards are snapshots in the same sense as the column snapshots: a shard set
// taken before an Append keeps describing the rows it was taken over.

// Shard is a view of rows [Lo, Hi) of a relation.
type Shard struct {
	rel *Relation
	Lo  int // first row of the span
	Hi  int // one past the last row of the span
}

// Shards splits the relation's current rows into n contiguous spans of
// near-equal size (the first len%n spans get one extra row). n is clamped to
// at least 1; n larger than the row count yields empty trailing shards,
// which are valid views selecting nothing.
//
// At segment scale — every shard spanning at least alignMinSegments sealed
// segments — the near-equal cuts snap to segment boundaries, so each shard
// reads whole segment-local column pages and zone-map spans with zero
// re-slicing. Each cut moves at most half a segment, so a shard's size
// skews by at most one segment — a ≤ 1/alignMinSegments imbalance; below
// that scale the historical near-equal split is kept unchanged (pinned by
// TestShardSpans).
func (r *Relation) Shards(n int) []Shard {
	if n < 1 {
		n = 1
	}
	total := r.Len()
	segRows := r.segmentRows()
	align := n > 1 && segRows > 0 && total/n >= segRows*alignMinSegments
	out := make([]Shard, n)
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + total/n
		if i < total%n {
			hi++
		}
		if align && i < n-1 {
			// Snap to the nearest segment boundary, staying monotone and
			// inside [lo, total].
			hi = (hi + segRows/2) / segRows * segRows
			hi = max(min(hi, total), lo)
		}
		out[i] = Shard{rel: r, Lo: lo, Hi: hi}
		lo = hi
	}
	out[n-1].Hi = total
	return out
}

// Relation returns the parent relation the shard views.
func (s Shard) Relation() *Relation { return s.rel }

// Len returns the number of rows in the span.
func (s Shard) Len() int { return s.Hi - s.Lo }

// Codes restricts a parent CatColumn's dictionary codes to the span. The
// returned slice shares the parent's backing array and dictionary: code c
// means the same value in every shard.
func (s Shard) Codes(col *CatColumn) []uint32 { return col.Codes[s.Lo:s.Hi:s.Hi] }

// NumSpan restricts a parent NumColumn to the span.
func (s Shard) NumSpan(col []float64) []float64 { return col[s.Lo:s.Hi:s.Hi] }

// Select returns the indices of the span's rows satisfying pred, in row
// order, numbered in the parent relation's row space. The predicate is
// evaluated once by the parent's selection engine (vectorized bitmaps and
// the conjunct cache); the sorted result is then
// cut to [Lo, Hi), so k shards selecting the same predicate cost one
// evaluation plus k binary searches — and their concatenation, shard by
// shard, is exactly the parent's Select result.
func (s Shard) Select(pred Predicate) []int {
	all := s.rel.Select(pred)
	return cutSorted(all, s.Lo, s.Hi)
}

// cutSorted returns the subslice of the sorted list covering [lo, hi).
func cutSorted(sorted []int, lo, hi int) []int {
	a := searchInts(sorted, lo)
	b := searchInts(sorted, hi)
	return sorted[a:b:b]
}

func searchInts(s []int, v int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
