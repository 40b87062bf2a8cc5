package testbed

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteNear is the reference query: a linear scan over every indexed point
// in id order.
func bruteNear(pos []Point, p Point, r float64) []int32 {
	var out []int32
	for id, q := range pos {
		if Dist(p, q) <= r {
			out = append(out, int32(id))
		}
	}
	return out
}

// TestGridMatchesBruteForce checks Near against the pairwise scan on
// randomized topologies: same ids, same (sorted) order, across cell sizes
// smaller than, equal to, and larger than the query radius — and radii of
// zero, beyond the whole floor, past the int32 cell range, and infinite.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(200)
		w := 50 + rng.Float64()*500
		pos := make([]Point, n)
		for i := range pos {
			pos[i] = Point{X: rng.Float64() * w, Y: rng.Float64() * w}
		}
		// Cluster some points into shared cells (equal positions included).
		for i := range pos {
			if i > 0 && rng.Intn(4) == 0 {
				pos[i] = pos[i-1]
			}
		}
		cell := []float64{5, 30, w}[trial%3]
		g := NewGrid(cell)
		for i, p := range pos {
			g.Add(i, p)
		}
		if g.Len() != n {
			t.Fatalf("trial %d: Len=%d want %d", trial, g.Len(), n)
		}
		for q := 0; q < 20; q++ {
			// Mix on-floor queries with far-outside ones (extent clipping).
			p := Point{X: rng.Float64()*3*w - w, Y: rng.Float64()*3*w - w}
			r := []float64{0, 5, 30, w * 3, 1e12, math.Inf(1)}[q%6] * (0.5 + rng.Float64())
			got := g.Near(p, r, nil)
			want := bruteNear(pos, p, r)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d cell=%.0f query (%.1f,%.1f) r=%.1f:\ngrid  %v\nbrute %v",
					trial, cell, p.X, p.Y, r, got, want)
			}
		}
	}
}

// TestGridOrderIndependentOfInsertion checks the determinism contract: the
// neighbor order Near returns depends only on the id set, never on the
// order points were added (bucket append order) or on map iteration.
func TestGridOrderIndependentOfInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 120
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	queries := make([]Point, 30)
	for i := range queries {
		queries[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}

	build := func(order []int) *Grid {
		g := NewGrid(25)
		for _, id := range order {
			g.Add(id, pos[id])
		}
		return g
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ref := build(order)
	for shuffle := 0; shuffle < 5; shuffle++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		g := build(order)
		for _, p := range queries {
			want := ref.Near(p, 40, nil)
			got := g.Near(p, 40, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("query (%.1f,%.1f): insertion order changed the result:\n%v\nvs\n%v", p.X, p.Y, got, want)
			}
			if !slices.IsSorted(got) {
				t.Fatalf("query (%.1f,%.1f): result not sorted: %v", p.X, p.Y, got)
			}
		}
	}
}

// TestGridReusesOutBuffer checks the allocation-free query contract: Near
// appends to the passed slice and leaves earlier contents alone.
func TestGridReusesOutBuffer(t *testing.T) {
	g := NewGrid(10)
	g.Add(0, Point{X: 1, Y: 1})
	g.Add(1, Point{X: 2, Y: 2})
	buf := []int32{99}
	out := g.Near(Point{X: 0, Y: 0}, 50, buf)
	if len(out) != 3 || out[0] != 99 || out[1] != 0 || out[2] != 1 {
		t.Fatalf("append contract broken: %v", out)
	}
}

func TestGridRejectsBadCellSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0) did not panic")
		}
	}()
	NewGrid(0)
}
