package geo

import "math/bits"

// Grid is a uniform spatial hash over a rectangle. Items are identified by a
// dense integer id in [0, n). The cell size should be at least the query
// radius so a 3×3 cell neighbourhood covers every candidate pair.
//
// The index is maintained incrementally: Update recomputes every item's
// cell but relinks only the items whose cell changed, so a scan tick in
// which nobody crosses a cell boundary writes nothing but the position
// copy. Each cell costs ~4.1 B — an occupancy bit and the smallest id in
// the cell — so even a sparse 15 600-cell grid stays cache-resident, and
// Pairs probes an empty neighbour with one bit test; each item costs ~32 B
// (position, cell, chain link, column, row and one bit marking the
// smallest id of its cell). Items in a cell form a chain in ascending id
// order, and a cell's smallest id is its rank in the Pairs enumeration,
// which is what makes the pair order a pure function of the current
// positions (DESIGN.md §13).
type Grid struct {
	area Rect
	cell float64
	cols int
	rows int

	// Per cell.
	occ  []uint64 // bit ci set while cell ci holds at least one item
	head []int32  // smallest id in cell ci; valid only while its occ bit is set

	// Per item.
	pos   []Point  // last known position
	items []slot   // cell, chain link and cell coordinates
	heads []uint64 // bit id set while item id is the smallest id in its cell
}

// slot is one item's place in the grid.
type slot struct {
	cell     int32 // -1 while the item is not in the grid
	next     int32 // next larger id in the same cell, -1 at the chain's end
	col, row int32 // cell coordinates, so Pairs never divides
}

// NewGrid creates a grid over area with the given cell size for n items.
// cell must be > 0, and the cell count must fit in an int32
// (network.NewManager rejects larger grids with an error).
func NewGrid(area Rect, cell float64, n int) *Grid {
	cols := int(area.W()/cell) + 1
	rows := int(area.H()/cell) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	nc := cols * rows
	items := make([]slot, n)
	for i := range items {
		items[i].cell = -1
	}
	return &Grid{
		area:  area,
		cell:  cell,
		cols:  cols,
		rows:  rows,
		occ:   make([]uint64, (nc+63)/64),
		head:  make([]int32, nc),
		pos:   make([]Point, n),
		items: items,
		heads: make([]uint64, (n+63)/64),
	}
}

// Dims returns the grid's column and row counts.
func (g *Grid) Dims() (cols, rows int) { return g.cols, g.rows }

// CellIndex exposes the grid's cell mapping: the dense index of the cell
// containing p, with out-of-area points clamped to the border cells. Two
// structures that bucket by CellIndex of the same Grid agree exactly —
// including every float-rounding decision — which is what lets the kinetic
// scanner (internal/network) keep its own incremental buckets while staying
// byte-compatible with this grid's Pairs enumeration.
//
// Performance contract: pure arithmetic, no allocation.
func (g *Grid) CellIndex(p Point) int {
	cx, cy := g.coords(p)
	return cy*g.cols + cx
}

// BoundaryDist returns the distance from p to the nearest edge of cell ci's
// box (≤ 0 when p lies on the boundary or outside the box, which happens
// for clamped out-of-area points). Callers using it as a containment margin
// must subtract their own conservative slack.
//
// Performance contract: pure arithmetic (axis minima, no square roots), no
// allocation.
func (g *Grid) BoundaryDist(p Point, ci int) float64 {
	lox := g.area.Min.X + float64(ci%g.cols)*g.cell
	loy := g.area.Min.Y + float64(ci/g.cols)*g.cell
	d := p.X - lox
	if hi := lox + g.cell - p.X; hi < d {
		d = hi
	}
	if dy := p.Y - loy; dy < d {
		d = dy
	}
	if hi := loy + g.cell - p.Y; hi < d {
		d = hi
	}
	return d
}

// coords returns the column and row of the cell containing p, clamping
// out-of-area points to the border cells.
func (g *Grid) coords(p Point) (cx, cy int) {
	cx = int((p.X - g.area.Min.X) / g.cell)
	cy = int((p.Y - g.area.Min.Y) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

// move links item id into cell ci = (cx, cy), first unlinking it from
// the cell it is in, if any.
func (g *Grid) move(id, ci int32, cx, cy int) {
	s := &g.items[id]
	if s.cell >= 0 {
		g.unlink(id)
	}
	s.cell, s.col, s.row = ci, int32(cx), int32(cy)
	switch h := g.head[ci]; {
	case !hasBit(g.occ, ci):
		setBit(g.occ, ci)
		g.head[ci] = id
		setBit(g.heads, id)
		s.next = -1
	case id < h:
		s.next = h
		g.head[ci] = id
		setBit(g.heads, id)
		clearBit(g.heads, h)
	default:
		prev := h
		for g.items[prev].next >= 0 && g.items[prev].next < id {
			prev = g.items[prev].next
		}
		s.next = g.items[prev].next
		g.items[prev].next = id
	}
}

// unlink removes item id from its cell's chain. It is O(1) when id is the
// cell's smallest id.
func (g *Grid) unlink(id int32) {
	s := &g.items[id]
	ci := s.cell
	if h := g.head[ci]; h == id {
		clearBit(g.heads, id)
		if nx := s.next; nx < 0 {
			clearBit(g.occ, ci)
		} else {
			g.head[ci] = nx
			setBit(g.heads, nx)
		}
	} else {
		prev := h
		for g.items[prev].next != id {
			prev = g.items[prev].next
		}
		g.items[prev].next = s.next
	}
	s.cell = -1
}

// Update replaces all item positions. len(pos) must equal the n passed to
// NewGrid.
//
// Performance contract: O(n + crossings) with no allocation — one cell
// computation per item, and a relink (an unlink and an in-order chain
// insert) only for items whose cell changed since the last Update.
func (g *Grid) Update(pos []Point) {
	copy(g.pos, pos)
	// Descending order makes a from-scratch fill prepend every item to its
	// chain in O(1).
	for id := len(pos) - 1; id >= 0; id-- {
		cx, cy := g.coords(pos[id])
		if ci := int32(cy*g.cols + cx); ci != g.items[id].cell {
			g.move(int32(id), ci, cx, cy)
		}
	}
}

// Pairs appends to out every unordered pair (a,b), a<b, whose distance is at
// most radius, and returns the extended slice. radius must be ≤ the cell
// size for completeness.
//
// The order is fixed: occupied cells by ascending smallest id; within a
// cell, its own pairs (ids ascending), then those with its E, SW, S and SE
// neighbours (the cell's ids outer, the neighbour's inner).
//
// Performance contract: O(n/64 + occupied cells + candidate pairs) — the
// head bits list the occupied cells in rank order, and each forward
// neighbour costs one test of the occupancy bitmap (2 KB for 15 600
// cells) unless it holds items. Compares squared distances only and
// writes through the caller's slice; with a warm out buffer Pairs
// allocates nothing.
func (g *Grid) Pairs(radius float64, out [][2]int32) [][2]int32 {
	r2 := radius * radius
	for w, word := range g.heads {
		for ; word != 0; word &= word - 1 {
			id := int32(w<<6 | bits.TrailingZeros64(word))
			out = g.cellPairs(id, r2, out)
		}
	}
	return out
}

// cellPairs appends the in-range pairs of the cell whose smallest id is
// id: within the cell, then with its forward neighbours.
func (g *Grid) cellPairs(id int32, r2 float64, out [][2]int32) [][2]int32 {
	s := g.items[id]
	for a := id; a >= 0; a = g.items[a].next {
		pa := g.pos[a]
		for b := g.items[a].next; b >= 0; b = g.items[b].next {
			if pa.Dist2(g.pos[b]) <= r2 {
				out = append(out, [2]int32{a, b})
			}
		}
	}
	// Forward neighbour cells only (E, SW, S, SE), so each cell pair is
	// visited exactly once.
	ci, cols := s.cell, int32(g.cols)
	east := s.col+1 < cols
	if east && hasBit(g.occ, ci+1) {
		out = g.cross(id, ci+1, r2, out)
	}
	if int(s.row)+1 < g.rows {
		south := ci + cols
		if s.col > 0 && hasBit(g.occ, south-1) {
			out = g.cross(id, south-1, r2, out)
		}
		if hasBit(g.occ, south) {
			out = g.cross(id, south, r2, out)
		}
		if east && hasBit(g.occ, south+1) {
			out = g.cross(id, south+1, r2, out)
		}
	}
	return out
}

// cross appends the in-range pairs between the chain starting at id and
// the items of the occupied cell ci.
func (g *Grid) cross(id, ci int32, r2 float64, out [][2]int32) [][2]int32 {
	first := g.head[ci]
	for a := id; a >= 0; a = g.items[a].next {
		pa := g.pos[a]
		for b := first; b >= 0; b = g.items[b].next {
			if pa.Dist2(g.pos[b]) <= r2 {
				if a < b {
					out = append(out, [2]int32{a, b})
				} else {
					out = append(out, [2]int32{b, a})
				}
			}
		}
	}
	return out
}

func hasBit(w []uint64, i int32) bool { return w[i>>6]&(1<<(i&63)) != 0 }
func setBit(w []uint64, i int32)      { w[i>>6] |= 1 << (i & 63) }
func clearBit(w []uint64, i int32)    { w[i>>6] &^= 1 << (i & 63) }
