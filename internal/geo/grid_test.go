package geo

import (
	"math"
	"slices"
	"sort"
	"testing"

	"sdsrp/internal/rng"
)

// bruteForcePairs computes all in-range pairs the slow way.
func bruteForcePairs(pos []Point, radius float64) [][2]int32 {
	var out [][2]int32
	r2 := radius * radius
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if pos[i].Dist2(pos[j]) <= r2 {
				out = append(out, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return out
}

func sortPairs(p [][2]int32) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}

func pairsEqual(a, b [][2]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridMatchesBruteForce(t *testing.T) {
	s := rng.New(99)
	area := NewRect(4500, 3400)
	const n = 150
	const radius = 100.0
	g := NewGrid(area, radius, n)
	pos := make([]Point, n)
	for trial := 0; trial < 20; trial++ {
		for i := range pos {
			pos[i] = Point{s.Uniform(0, area.W()), s.Uniform(0, area.H())}
		}
		g.Update(pos)
		got := g.Pairs(radius, nil)
		want := bruteForcePairs(pos, radius)
		sortPairs(got)
		sortPairs(want)
		if !pairsEqual(got, want) {
			t.Fatalf("trial %d: grid pairs (%d) != brute force (%d)", trial, len(got), len(want))
		}
	}
}

func TestGridClusteredPositions(t *testing.T) {
	// All nodes in one spot: every pair must be reported exactly once.
	const n = 20
	area := NewRect(1000, 1000)
	g := NewGrid(area, 100, n)
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{500, 500}
	}
	g.Update(pos)
	got := g.Pairs(100, nil)
	if len(got) != n*(n-1)/2 {
		t.Fatalf("got %d pairs, want %d", len(got), n*(n-1)/2)
	}
	seen := map[[2]int32]bool{}
	for _, p := range got {
		if p[0] >= p[1] {
			t.Fatalf("pair %v not ordered", p)
		}
		if seen[p] {
			t.Fatalf("pair %v reported twice", p)
		}
		seen[p] = true
	}
}

func TestGridBoundaryPositions(t *testing.T) {
	// Nodes exactly on area edges and corners must not panic or be lost.
	area := NewRect(300, 300)
	pos := []Point{{0, 0}, {300, 300}, {300, 0}, {0, 300}, {299.9, 299.9}}
	g := NewGrid(area, 100, len(pos))
	g.Update(pos)
	got := g.Pairs(100, nil)
	want := bruteForcePairs(pos, 100)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
}

func TestGridOutOfBoundsClamped(t *testing.T) {
	// Positions slightly outside the area (trace jitter) are clamped to
	// border cells rather than crashing.
	area := NewRect(100, 100)
	pos := []Point{{-5, -5}, {-4, -4}, {105, 105}}
	g := NewGrid(area, 50, len(pos))
	g.Update(pos)
	got := g.Pairs(10, nil)
	if len(got) != 1 {
		t.Fatalf("got %d pairs, want 1", len(got))
	}
}

func TestGridReuseAcrossUpdates(t *testing.T) {
	s := rng.New(7)
	area := NewRect(500, 500)
	const n = 40
	g := NewGrid(area, 100, n)
	pos := make([]Point, n)
	var buf [][2]int32
	for tick := 0; tick < 50; tick++ {
		for i := range pos {
			pos[i] = Point{s.Uniform(0, 500), s.Uniform(0, 500)}
		}
		g.Update(pos)
		buf = g.Pairs(100, buf[:0])
		want := bruteForcePairs(pos, 100)
		if len(buf) != len(want) {
			t.Fatalf("tick %d: %d pairs, want %d", tick, len(buf), len(want))
		}
	}

	// Steady state: moving items through Update then Pairs with a warm
	// buffer allocates nothing, crossings included.
	frames := movingFrames(s, area, n, 2, 15, 64)
	for _, f := range frames {
		g.Update(f)
		buf = g.Pairs(100, buf[:0])
	}
	next := 0
	allocs := testing.AllocsPerRun(200, func() {
		g.Update(frames[next])
		buf = g.Pairs(100, buf[:0])
		next = (next + 1) % len(frames)
	})
	if allocs != 0 {
		t.Errorf("steady-state Update+Pairs allocated %.1f times per tick, want 0", allocs)
	}
}

// movingFrames precomputes a ping-pong cycle of 2·steps−2 position frames:
// items start at uniform or (hotspots > 0) hotspot-clustered positions and
// move in straight lines at up to speed metres per tick, reflecting off the
// area's edges; a fifth of them are parked. Cycling through the frames
// keeps every transition a one-tick move, as in a real scan.
func movingFrames(s *rng.Stream, area Rect, n int, hotspots int, speed float64, steps int) [][]Point {
	centres := make([]Point, hotspots)
	for i := range centres {
		centres[i] = Point{s.Uniform(0, area.W()), s.Uniform(0, area.H())}
	}
	cur := make([]Point, n)
	vel := make([]Vec, n)
	for i := range cur {
		if hotspots > 0 {
			c := centres[s.IntN(hotspots)]
			cur[i] = area.Clamp(Point{c.X + s.Normal(0, 250), c.Y + s.Normal(0, 250)})
		} else {
			cur[i] = Point{s.Uniform(0, area.W()), s.Uniform(0, area.H())}
		}
		if s.Bool(0.8) {
			v := s.Uniform(0.2, 1) * speed
			a := s.Uniform(0, 2*math.Pi)
			vel[i] = Vec{v * math.Cos(a), v * math.Sin(a)}
		}
	}
	frames := make([][]Point, 0, 2*steps-2)
	for k := 0; k < steps; k++ {
		frames = append(frames, append([]Point(nil), cur...))
		for i := range cur {
			p := cur[i].Add(vel[i])
			if p.X < 0 || p.X > area.W() {
				vel[i].X = -vel[i].X
			}
			if p.Y < 0 || p.Y > area.H() {
				vel[i].Y = -vel[i].Y
			}
			cur[i] = area.Clamp(p)
		}
	}
	for k := steps - 2; k > 0; k-- {
		frames = append(frames, frames[k])
	}
	return frames
}

func benchmarkGridFrames(b *testing.B, area Rect, cell float64, frames [][]Point) {
	g := NewGrid(area, cell, len(frames[0]))
	var buf [][2]int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(frames[i%len(frames)])
		buf = g.Pairs(cell, buf[:0])
	}
}

// BenchmarkGridPairs100 is one Table II-sized scan tick: 100 items moving
// at up to 2 m/s over 4500 × 3400 m with 100 m cells.
func BenchmarkGridPairs100(b *testing.B) {
	area := NewRect(4500, 3400)
	benchmarkGridFrames(b, area, 100, movingFrames(rng.New(1), area, 100, 0, 2, 256))
}

// BenchmarkGridPairsTable3 is one Table III-sized scan tick: 200
// hotspot-clustered items moving at up to 14 m/s over 13 × 12 km with
// 100 m cells (15 600 cells, almost all empty).
func BenchmarkGridPairsTable3(b *testing.B) {
	area := NewRect(13000, 12000)
	benchmarkGridFrames(b, area, 100, movingFrames(rng.New(1), area, 200, 12, 14, 256))
}

// refGrid is the grid as it was before the index became incremental: every
// update clears and refills per-cell buckets, and Pairs visits cells in
// first-insertion order. It is the order-exact reference for the
// incremental Grid.
type refGrid struct {
	g        *Grid // only for its geometry and cell mapping
	cells    [][]int32
	occupied []int32
	pos      []Point
}

func newRefGrid(area Rect, cell float64, n int) *refGrid {
	g := NewGrid(area, cell, 0)
	return &refGrid{g: g, cells: make([][]int32, g.cols*g.rows), pos: make([]Point, n)}
}

func (r *refGrid) Update(pos []Point) {
	for _, ci := range r.occupied {
		r.cells[ci] = r.cells[ci][:0]
	}
	r.occupied = r.occupied[:0]
	copy(r.pos, pos)
	for id, p := range pos {
		ci := r.g.CellIndex(p)
		if len(r.cells[ci]) == 0 {
			r.occupied = append(r.occupied, int32(ci))
		}
		r.cells[ci] = append(r.cells[ci], int32(id))
	}
}

func (r *refGrid) Pairs(radius float64, out [][2]int32) [][2]int32 {
	r2 := radius * radius
	cols, rows := r.g.Dims()
	for _, ciAny := range r.occupied {
		ci := int(ciAny)
		cx, cy := ci%cols, ci/cols
		items := r.cells[ci]
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				a, b := items[i], items[j]
				if r.pos[a].Dist2(r.pos[b]) <= r2 {
					out = append(out, [2]int32{min(a, b), max(a, b)})
				}
			}
		}
		for _, d := range [4][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
			nx, ny := cx+d[0], cy+d[1]
			if nx < 0 || nx >= cols || ny >= rows {
				continue
			}
			for _, a := range items {
				for _, b := range r.cells[ny*cols+nx] {
					if r.pos[a].Dist2(r.pos[b]) <= r2 {
						out = append(out, [2]int32{min(a, b), max(a, b)})
					}
				}
			}
		}
	}
	return out
}

// checkGridInvariants recomputes the incremental index's per-cell state
// from the item slots: occupancy bits, chain heads and order, and head
// bits.
func checkGridInvariants(t *testing.T, g *Grid) {
	t.Helper()
	count := make([]int32, len(g.head))
	for id, s := range g.items {
		if s.cell < 0 {
			continue
		}
		count[s.cell]++
		if int(s.cell) != int(s.row)*g.cols+int(s.col) {
			t.Fatalf("item %d: cell %d but column %d row %d", id, s.cell, s.col, s.row)
		}
	}
	for id, s := range g.items {
		isHead := s.cell >= 0 && g.head[s.cell] == int32(id)
		if marked := hasBit(g.heads, int32(id)); marked != isHead {
			t.Fatalf("item %d: head bit %v, but smallest id of its cell is %v", id, marked, isHead)
		}
	}
	for ci := range count {
		set := hasBit(g.occ, int32(ci))
		if set != (count[ci] > 0) {
			t.Fatalf("cell %d: occupancy bit %v with %d items", ci, set, count[ci])
		}
		if set {
			chain := int32(0)
			prev := int32(-1)
			for a := g.head[ci]; a >= 0; a = g.items[a].next {
				if a <= prev || int(g.items[a].cell) != ci {
					t.Fatalf("cell %d: chain broken at item %d", ci, a)
				}
				prev = a
				chain++
			}
			if chain != count[ci] {
				t.Fatalf("cell %d: chain holds %d items, want %d", ci, chain, count[ci])
			}
		}
	}
}

// gridShapes are the geometries the differential check draws from: square
// and rectangular multi-cell grids, the table3 grid, a single cell, a
// single row and a single column.
var gridShapes = []struct{ w, h, cell float64 }{
	{1000, 1000, 100},
	{4500, 3400, 100},
	{13000, 12000, 100},
	{300, 300, 100},
	{50, 50, 100},
	{1000, 40, 100},
	{40, 1000, 100},
	{700, 500, 130},
}

// checkGridOps drives one incremental Grid through the position frames
// ops describes and requires, after every frame, that Pairs equal the
// from-scratch reference element for element. ops[0] sizes the item set,
// ops[1] picks the geometry and seeds the position stream, and each later
// byte is one frame: its low three bits pick the kind of motion and the
// rest parametrise it.
func checkGridOps(t *testing.T, ops []byte) {
	if len(ops) < 2 {
		return
	}
	n := 1 + int(ops[0])%48
	shape := gridShapes[int(ops[1])%len(gridShapes)]
	area := NewRect(shape.w, shape.h)
	radius := shape.cell
	if ops[1]&0x80 != 0 {
		radius *= 0.75
	}
	s := rng.New(uint64(ops[0])<<8 | uint64(ops[1]))
	g := NewGrid(area, shape.cell, n)
	ref := newRefGrid(area, shape.cell, n)
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{s.Uniform(0, shape.w), s.Uniform(0, shape.h)}
	}
	var got, want [][2]int32
	for f, op := range ops[2:] {
		param := int(op >> 3)
		switch op & 7 {
		case 0: // small steps: most items stay in their cell
			for i := range pos {
				pos[i] = pos[i].Add(Vec{s.Uniform(-3, 3), s.Uniform(-3, 3)})
			}
		case 1: // cell crossings: a share of the items step about one cell
			for i := range pos {
				if s.IntN(32) <= param {
					pos[i] = pos[i].Add(Vec{shape.cell * float64(s.IntRange(-1, 1)), shape.cell * float64(s.IntRange(-1, 1))})
				}
			}
		case 2: // teleports
			for i := range pos {
				if s.IntN(32) <= param {
					pos[i] = Point{s.Uniform(0, shape.w), s.Uniform(0, shape.h)}
				}
			}
		case 3: // out-of-area positions, clamped to the border cells
			for i := range pos {
				if s.IntN(32) <= param {
					pos[i] = Point{s.Uniform(-2*shape.cell, shape.w+2*shape.cell), s.Uniform(-2*shape.cell, shape.h+2*shape.cell)}
				}
			}
		case 4: // every item in one cell
			c := Point{s.Uniform(0, shape.w), s.Uniform(0, shape.h)}
			ci := g.CellIndex(c)
			for i := range pos {
				pos[i] = c
				if param&1 != 0 {
					pos[i] = Point{s.Uniform(0, shape.w), s.Uniform(0, shape.h)}
					for g.CellIndex(pos[i]) != ci {
						pos[i] = pos[i].Lerp(c, 0.5)
					}
				}
			}
		case 5: // border and corner cells, including points on cell edges
			for i := range pos {
				if s.IntN(32) <= param {
					xs := []float64{0, shape.w, shape.cell * float64(s.IntN(int(shape.w/shape.cell)+1)), s.Uniform(0, shape.w)}
					ys := []float64{0, shape.h, shape.cell * float64(s.IntN(int(shape.h/shape.cell)+1)), s.Uniform(0, shape.h)}
					pos[i] = Point{xs[s.IntN(len(xs))], ys[s.IntN(len(ys))]}
				}
			}
		case 6: // drift: every item steps up to 30 m along each axis
			for i := range pos {
				pos[i] = pos[i].Add(Vec{s.Uniform(-30, 30), s.Uniform(-30, 30)})
			}
		case 7: // no motion at all
		}
		g.Update(pos)
		ref.Update(pos)
		checkGridInvariants(t, g)
		got = g.Pairs(radius, got[:0])
		want = ref.Pairs(radius, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("frame %d (op %d): incremental pairs diverge from the reference:\n got %v\nwant %v", f, op, got, want)
		}
	}
}

func FuzzGridIncremental(f *testing.F) {
	f.Add([]byte{40, 0, 0, 0, 9, 0, 7, 2, 0, 6, 0, 14, 1})
	f.Add([]byte{199, 2, 1, 249, 0, 0, 4, 0, 5, 255, 2, 248, 6})
	f.Add([]byte{20, 4, 4, 3, 5, 6, 7, 1, 12})
	f.Add([]byte{47, 5, 1, 9, 3, 253, 6, 14, 30, 6, 0, 4})
	f.Add([]byte{33, 6, 2, 3, 5, 6, 1, 4, 12, 4, 7})
	f.Add([]byte{12, 0x87, 0, 1, 2, 3, 4, 5, 6, 7, 6, 6, 15, 6, 0})
	f.Fuzz(checkGridOps)
}

// TestGridMatchesReference runs the differential check over a fixed set of
// pseudo-random frame sequences on every plain test run.
func TestGridMatchesReference(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 2+10+r.IntN(60))
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		checkGridOps(t, ops)
	}
}
