package core

import (
	"testing"

	"sdsrp/internal/msg"
)

// Micro-benchmarks for the hot SDSRP paths: the Eq. 10 priority is
// evaluated for every buffered message at every scheduling decision, and
// the drop-table merge runs twice per contact.

func BenchmarkPriority(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Priority(float64(i%90), float64(i%20+1), 1+i%64, 9000, 100, 1.0/21000)
	}
	_ = sink
}

func BenchmarkTaylorPriority(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += TaylorPriority(0.3, 0.5, float64(i%20+1), 3)
	}
	_ = sink
}

func BenchmarkEstimateSeen(b *testing.B) {
	history := []float64{100, 400, 900, 1600, 2500}
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += EstimateSeen(history, 2, float64(3000+i%100), 220, 100)
	}
	_ = sink
}

// BenchmarkDropTableMerge times one contact's drop-list gossip in a
// mid-run state: 100 owners with 30 drops each, cached by two nodes x and y.
// Between consecutive contacts six owners drop one more message each, and
// x and y have each heard three of those drops from someone else (a
// courier table); the contact then merges both ways, so every iteration
// replaces records whose owners moved on. Every 512 contacts the two
// caches are rewound to the initial state with the timer stopped, which
// keeps the logs bounded; the merges themselves must not allocate.
func BenchmarkDropTableMerge(b *testing.B) {
	const owners, initial, rounds, news = 100, 30, 512, 3
	srcs := make([]*DropTable, owners)
	next := msg.ID(1)
	for o := range srcs {
		srcs[o] = NewDropTable(o)
		for k := 0; k < initial; k++ {
			srcs[o].RecordDrop(next, float64(k))
			next++
		}
	}
	base := NewDropTable(owners + 2)
	for _, src := range srcs {
		base.MergeFrom(src)
	}
	var couriers [2][rounds]*DropTable
	for r := 0; r < rounds; r++ {
		for side := range couriers {
			c := NewDropTable(owners + 2)
			for j := 0; j < news; j++ {
				o := (r*2*news + side*news + j) * 37 % owners
				srcs[o].RecordDrop(next, float64(initial+r))
				next++
				c.MergeFrom(srcs[o])
			}
			couriers[side][r] = c
		}
	}
	x, y := NewDropTable(owners), NewDropTable(owners+1)
	rewind := func() {
		for _, t := range []*DropTable{x, y} {
			t.Reset()
			t.MergeFrom(base)
		}
	}
	for _, src := range srcs { // size the indexes for the largest id
		x.MergeFrom(src)
		y.MergeFrom(src)
	}
	rewind()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % rounds
		if r == 0 && i > 0 {
			b.StopTimer()
			rewind()
			b.StartTimer()
		}
		x.MergeFrom(couriers[0][r])
		y.MergeFrom(couriers[1][r])
		x.MergeFrom(y)
		y.MergeFrom(x)
	}
}

func BenchmarkCensusEstimator(b *testing.B) {
	e := NewCensusEstimator(20000, 1, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.OnContactStart(i%99, float64(i))
		_ = e.Lambda()
	}
}
