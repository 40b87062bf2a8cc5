package testbed

import (
	"math"
	"slices"
)

// Grid is a spatial hash index over static Points: positions are bucketed
// into square cells of a fixed size, and Near answers "which ids lie within
// r meters of p" by scanning only the buckets the query disk overlaps —
// O(nearby) instead of O(all points).
//
// The index is built for the simulator's determinism contract:
//
//   - Near visits candidate buckets in a fixed row-major order computed
//     from the query box, never by ranging over the bucket map, and returns
//     ids sorted ascending — so callers iterate neighbors in exactly the
//     order a linear scan over an id-ordered slice would, independent of
//     map iteration order and of insertion order.
//   - Points are static once added (the simulator's flows never move), so
//     there is no remove/update path to reorder buckets.
//
// The cell size should match the dominant query radius (e.g. the
// carrier-sense range): a radius-r query then touches at most 3x3 buckets.
// Larger radii still work — the query box just spans more buckets.
type Grid struct {
	cellM   float64
	buckets map[gridKey][]gridEntry
	// dense is the compacted bucket table, built lazily on the first query
	// after an Add: row-major over the occupied extent, so the query loop
	// indexes buckets arithmetically instead of hashing a map key per cell.
	// Left nil (map path) when the extent is too sparse to densify.
	dense  [][]gridEntry
	denseW int
	dirty  bool
	minX   int32
	maxX   int32
	minY   int32
	maxY   int32
	n      int
}

// gridKey addresses one bucket by its integer cell coordinates.
type gridKey struct{ x, y int32 }

// gridEntry carries the point inline with its id so the Near hot loop
// filters candidates without a second map lookup per candidate.
type gridEntry struct {
	id int32
	p  Point
}

// NewGrid returns an empty index with the given bucket size in meters.
// cellM must be positive.
func NewGrid(cellM float64) *Grid {
	if cellM <= 0 {
		panic("testbed: grid cell size must be positive")
	}
	return &Grid{
		cellM:   cellM,
		buckets: make(map[gridKey][]gridEntry),
		minX:    math.MaxInt32, maxX: math.MinInt32,
		minY: math.MaxInt32, maxY: math.MinInt32,
	}
}

// cellOf maps a coordinate to its integer cell index.
func (g *Grid) cellOf(v float64) int32 {
	return int32(math.Floor(v / g.cellM))
}

// queryCell maps a query-box edge to its cell index, saturating in float
// space at the int32 range: an edge pushed out by a huge or infinite radius
// lands past the occupied extent instead of overflowing the conversion. A
// NaN edge saturates low, so the query matches nothing.
func (g *Grid) queryCell(v float64) int32 {
	c := math.Floor(v / g.cellM)
	switch {
	case c >= math.MaxInt32:
		return math.MaxInt32
	case c > math.MinInt32:
		return int32(c)
	default:
		return math.MinInt32
	}
}

// Add indexes one point under the given id. Ids must be unique; points are
// immutable once added.
func (g *Grid) Add(id int, p Point) {
	key := gridKey{g.cellOf(p.X), g.cellOf(p.Y)}
	g.buckets[key] = append(g.buckets[key], gridEntry{id: int32(id), p: p})
	g.dense, g.dirty = nil, true
	if key.x < g.minX {
		g.minX = key.x
	}
	if key.x > g.maxX {
		g.maxX = key.x
	}
	if key.y < g.minY {
		g.minY = key.y
	}
	if key.y > g.maxY {
		g.maxY = key.y
	}
	g.n++
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.n }

// compact flattens the bucket map into the dense row-major table when the
// occupied bounding box is small enough to afford one slice header per
// cell. Pathologically sparse layouts (a few points flung across a huge
// extent) stay on the map path.
func (g *Grid) compact() {
	g.dirty = false
	if g.n == 0 {
		return
	}
	w := int64(g.maxX) - int64(g.minX) + 1
	h := int64(g.maxY) - int64(g.minY) + 1
	if w*h > 16*int64(g.n)+1024 {
		return
	}
	dense := make([][]gridEntry, w*h)
	for k, b := range g.buckets {
		dense[(int64(k.y)-int64(g.minY))*w+(int64(k.x)-int64(g.minX))] = b
	}
	g.dense, g.denseW = dense, int(w)
}

// Near appends to out the ids of every indexed point within radius r of p
// (inclusive, matching Dist(p, q) <= r) and returns the extended slice
// sorted ascending. Pass a reused out[:0] to keep the query
// allocation-free. The result order depends only on the id set, never on
// insertion or bucket order.
func (g *Grid) Near(p Point, r float64, out []int32) []int32 {
	if r < 0 || g.n == 0 {
		return out
	}
	x0, x1 := g.queryCell(p.X-r), g.queryCell(p.X+r)
	y0, y1 := g.queryCell(p.Y-r), g.queryCell(p.Y+r)
	// Clip the query box to the occupied extent so a far-away query point
	// does not walk empty cells.
	x0, x1 = max(x0, g.minX), min(x1, g.maxX)
	y0, y1 = max(y0, g.minY), min(y1, g.maxY)
	if g.dirty {
		g.compact()
	}
	start := len(out)
	if g.dense != nil {
		for y := y0; y <= y1; y++ {
			row := (int(y)-int(g.minY))*g.denseW - int(g.minX)
			for x := x0; x <= x1; x++ {
				for _, e := range g.dense[row+int(x)] {
					if Dist(p, e.p) <= r {
						out = append(out, e.id)
					}
				}
			}
		}
	} else {
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				for _, e := range g.buckets[gridKey{x, y}] {
					if Dist(p, e.p) <= r {
						out = append(out, e.id)
					}
				}
			}
		}
	}
	slices.Sort(out[start:])
	return out
}
