package core

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"sdsrp/internal/msg"
	"sdsrp/internal/rng"
)

func TestDropTableOwnRecord(t *testing.T) {
	dt := NewDropTable(3)
	if dt.RejectsIncoming(1) || dt.DroppedCount(1) != 0 {
		t.Fatal("fresh table not empty")
	}
	dt.RecordDrop(1, 100)
	if !dt.RejectsIncoming(1) {
		t.Fatal("own drop not rejected")
	}
	if dt.DroppedCount(1) != 1 {
		t.Fatalf("DroppedCount = %d", dt.DroppedCount(1))
	}
	// Duplicate drop does not double-count.
	dt.RecordDrop(1, 200)
	if dt.DroppedCount(1) != 1 {
		t.Fatalf("DroppedCount after dup = %d", dt.DroppedCount(1))
	}
}

func TestDropTableGossip(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	b.MergeFrom(a)
	if b.DroppedCount(10) != 1 {
		t.Fatalf("b count = %d after merge", b.DroppedCount(10))
	}
	// b did not drop 10 itself, so it does not reject it.
	if b.RejectsIncoming(10) {
		t.Fatal("b rejects a message it never dropped")
	}
	// a learns of b's drops too.
	b.RecordDrop(11, 60)
	a.MergeFrom(b)
	if a.DroppedCount(11) != 1 || a.DroppedCount(10) != 1 {
		t.Fatalf("a counts = %d,%d", a.DroppedCount(10), a.DroppedCount(11))
	}
}

func TestDropTableNewestRecordWins(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	c := NewDropTable(3)

	a.RecordDrop(10, 50)
	b.MergeFrom(a) // b caches a@50 with {10}
	a.RecordDrop(11, 80)
	c.MergeFrom(a) // c caches a@80 with {10,11}

	// b has the stale record; merging from c upgrades it.
	b.MergeFrom(c)
	if b.DroppedCount(11) != 1 {
		t.Fatal("newer record did not propagate through intermediary")
	}
	// Merging the stale copy back into c must not regress it.
	c.MergeFrom(b)
	if c.DroppedCount(11) != 1 {
		t.Fatal("stale record overwrote newer one")
	}
}

func TestDropTableOwnRecordAuthoritative(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	b.MergeFrom(a)
	// Forge a "newer" record for owner 1 inside b's cache by having b's
	// table gossiped back; a must keep its own version.
	a.RecordDrop(11, 60)
	a.MergeFrom(b)
	if a.DroppedCount(11) != 1 {
		t.Fatal("gossip overwrote the owner's own record")
	}
	if !a.RejectsIncoming(11) {
		t.Fatal("own drop lost after merge")
	}
}

func TestDropTableMergeIsolation(t *testing.T) {
	// After a merge, the source appending to its own log must not leak into
	// the cached record (records are capped prefixes of the log).
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	b.MergeFrom(a)
	a.RecordDrop(12, 55)
	if b.DroppedCount(12) != 0 {
		t.Fatal("cached record shares storage with the owner's record")
	}
}

func TestDropTableCounts(t *testing.T) {
	tables := make([]*DropTable, 5)
	for i := range tables {
		tables[i] = NewDropTable(i)
	}
	// Nodes 0,1,2 drop message 7 at different times.
	tables[0].RecordDrop(7, 10)
	tables[1].RecordDrop(7, 20)
	tables[2].RecordDrop(7, 30)
	// Gossip chain 0->3, 1->3, 2->3.
	tables[3].MergeFrom(tables[0])
	tables[3].MergeFrom(tables[1])
	tables[3].MergeFrom(tables[2])
	if tables[3].DroppedCount(7) != 3 {
		t.Fatalf("count = %d, want 3", tables[3].DroppedCount(7))
	}
	if tables[3].Records() != 3 {
		t.Fatalf("records = %d, want 3", tables[3].Records())
	}
}

func TestDropTableForget(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	a.RecordDrop(11, 51)
	b.RecordDrop(10, 60)
	a.MergeFrom(b)
	if a.DroppedCount(10) != 2 {
		t.Fatalf("precondition: count=%d", a.DroppedCount(10))
	}
	a.Forget(10)
	if a.DroppedCount(10) != 0 {
		t.Fatal("Forget left counts")
	}
	if a.DroppedCount(11) != 1 {
		t.Fatal("Forget removed unrelated message")
	}
	if a.RejectsIncoming(10) {
		t.Fatal("Forget left rejection state")
	}
}

// Property: however records are gossiped around, a node's DroppedCount for a
// message equals the number of distinct owners that dropped it among the
// records it has seen (eventual consistency of the count derivation).
func TestPropertyGossipCountConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		const nNodes = 6
		tables := make([]*DropTable, nNodes)
		for i := range tables {
			tables[i] = NewDropTable(i)
		}
		dropped := make([]map[msg.ID]bool, nNodes) // truth: who dropped what
		for i := range dropped {
			dropped[i] = map[msg.ID]bool{}
		}
		now := 1.0
		for _, op := range ops {
			a := int(op) % nNodes
			b := int(op>>4) % nNodes
			if op%3 == 0 {
				id := msg.ID(op % 7)
				tables[a].RecordDrop(id, now)
				dropped[a][id] = true
			} else if a != b {
				tables[a].MergeFrom(tables[b])
				tables[b].MergeFrom(tables[a])
			}
			now++
		}
		// Fully gossip everything to node 0.
		for i := 1; i < nNodes; i++ {
			tables[0].MergeFrom(tables[i])
		}
		for id := msg.ID(0); id < 7; id++ {
			want := 0
			for i := 0; i < nNodes; i++ {
				if dropped[i][id] {
					want++
				}
			}
			if tables[0].DroppedCount(id) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A gossip-caught-up record must not learn the later drops of an instant
// whose first drop it already cached: the record time, not the log
// length, decides replacement (Fig. 5).
func TestDropTableSameInstantDrops(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	b.MergeFrom(a)
	a.RecordDrop(11, 50)
	a.RecordDrop(12, 50)
	b.MergeFrom(a)
	if b.DroppedCount(11) != 0 || b.DroppedCount(12) != 0 {
		t.Fatal("same-time record replaced the cached one")
	}
	a.RecordDrop(13, 60)
	b.MergeFrom(a)
	for id := msg.ID(10); id <= 13; id++ {
		if b.DroppedCount(id) != 1 {
			t.Fatalf("count(%d) = %d after a newer drop", id, b.DroppedCount(id))
		}
	}
}

// A rebooted owner starts a new log; peers holding the old epoch recount
// the replaced record in full instead of counting a delta.
func TestDropTableResetEpoch(t *testing.T) {
	a := NewDropTable(1)
	b := NewDropTable(2)
	a.RecordDrop(10, 50)
	a.RecordDrop(11, 51)
	b.MergeFrom(a)
	a.Reset()
	a.RecordDrop(12, 60)
	b.MergeFrom(a)
	if b.DroppedCount(10) != 0 || b.DroppedCount(11) != 0 || b.DroppedCount(12) != 1 {
		t.Fatalf("counts after epoch change = %d,%d,%d",
			b.DroppedCount(10), b.DroppedCount(11), b.DroppedCount(12))
	}
	if a.RejectsIncoming(10) || !a.RejectsIncoming(12) {
		t.Fatal("own rejections not reset with the epoch")
	}
}

// The per-host fixed cost: a zero table fits in 64 bytes and a new one is
// a single allocation.
func TestDropTableFixedCost(t *testing.T) {
	if sz := unsafe.Sizeof(DropTable{}); sz > 64 {
		t.Fatalf("sizeof(DropTable) = %d, want <= 64", sz)
	}
	var sink *DropTable
	if n := testing.AllocsPerRun(100, func() { sink = NewDropTable(7) }); n != 1 {
		t.Fatalf("NewDropTable allocs = %v, want 1", n)
	}
	_ = sink
}

// refDropTable is the sorted-set drop table the delta-gossip DropTable
// replaced, kept as the differential reference: every cached record is a
// private sorted copy of the owner's set, a merge diffs two generations,
// and Forget strips the id from every record.
type refDropTable struct {
	self    int
	records []*refDropRecord
	nrec    int
	counts  []int32
}

type refDropRecord struct {
	time float64
	ids  []msg.ID
}

func (t *refDropTable) record(owner int) *refDropRecord {
	if owner >= len(t.records) {
		t.records = append(t.records, make([]*refDropRecord, owner+1-len(t.records))...)
	}
	return t.records[owner]
}

func (t *refDropTable) add(id msg.ID, d int32) {
	if int(id) >= len(t.counts) {
		t.counts = append(t.counts, make([]int32, int(id)+1-len(t.counts))...)
	}
	t.counts[id] += d
}

func (t *refDropTable) RecordDrop(id msg.ID, now float64) {
	rec := t.record(t.self)
	if rec == nil {
		rec = &refDropRecord{}
		t.records[t.self] = rec
		t.nrec++
	}
	rec.time = now
	if pos, dup := slices.BinarySearch(rec.ids, id); !dup {
		rec.ids = slices.Insert(rec.ids, pos, id)
		t.add(id, 1)
	}
}

func (t *refDropTable) MergeFrom(peer *refDropTable) {
	for owner, rec := range peer.records {
		if rec == nil || owner == t.self {
			continue
		}
		cur := t.record(owner)
		if cur != nil && cur.time >= rec.time {
			continue
		}
		if cur == nil {
			cur = &refDropRecord{}
			t.records[owner] = cur
			t.nrec++
		}
		for _, id := range cur.ids {
			t.add(id, -1)
		}
		for _, id := range rec.ids {
			t.add(id, 1)
		}
		cur.time = rec.time
		cur.ids = slices.Clone(rec.ids)
	}
}

func (t *refDropTable) DroppedCount(id msg.ID) int {
	if int(id) >= len(t.counts) {
		return 0
	}
	return int(t.counts[id])
}

func (t *refDropTable) RejectsIncoming(id msg.ID) bool {
	if t.self >= len(t.records) || t.records[t.self] == nil {
		return false
	}
	_, ok := slices.BinarySearch(t.records[t.self].ids, id)
	return ok
}

func (t *refDropTable) Forget(id msg.ID) {
	for _, rec := range t.records {
		if rec == nil {
			continue
		}
		if pos, ok := slices.BinarySearch(rec.ids, id); ok {
			rec.ids = slices.Delete(rec.ids, pos, pos+1)
		}
	}
	if int(id) < len(t.counts) {
		t.counts[id] = 0
	}
}

func (t *refDropTable) Reset() {
	clear(t.records)
	t.nrec = 0
	clear(t.counts)
}

// checkDropTableOps replays an operation stream on a set of DropTables and
// on their reference twins, comparing every observable after every step.
// Each op is two bytes: a kind and an argument. Time advances only on an
// explicit op, so several drops can share an instant with gossip between
// them; a rare step backwards exercises a record that is newer in time but
// shorter in log. Forget models global TTL expiry: the id is excluded from
// all later comparisons on every table, as the simulator never reads an
// expired id again.
func checkDropTableOps(t *testing.T, ops []byte) {
	const nodes, ids = 5, 12
	tables := make([]*DropTable, nodes)
	refs := make([]*refDropTable, nodes)
	for i := range tables {
		tables[i] = NewDropTable(i)
		refs[i] = &refDropTable{self: i}
	}
	var forgotten [ids]bool
	now := 0.0
	for k := 0; k+1 < len(ops); k += 2 {
		kind, arg := ops[k]%10, int(ops[k+1])
		a, b, id := arg%nodes, (arg/nodes)%nodes, msg.ID(arg%ids)
		switch kind {
		case 0, 1, 2:
			tables[a].RecordDrop(id, now)
			refs[a].RecordDrop(id, now)
		case 3, 4:
			if arg%8 == 7 {
				now -= 2
			} else {
				now += float64(1 + arg%3)
			}
		case 5, 6, 7:
			tables[a].MergeFrom(tables[b])
			refs[a].MergeFrom(refs[b])
		case 8:
			if arg%4 == 0 {
				tables[a].Reset()
				refs[a].Reset()
			}
		case 9:
			if arg%3 == 0 {
				tables[a].Forget(id)
				refs[a].Forget(id)
				forgotten[id] = true
			}
		}
		for n := range tables {
			if got, want := tables[n].Records(), refs[n].nrec; got != want {
				t.Fatalf("op %d: node %d Records = %d, reference %d", k/2, n, got, want)
			}
			for i := msg.ID(0); i < ids; i++ {
				if forgotten[i] {
					continue
				}
				if got, want := tables[n].DroppedCount(i), refs[n].DroppedCount(i); got != want {
					t.Fatalf("op %d: node %d DroppedCount(%d) = %d, reference %d", k/2, n, i, got, want)
				}
				if got, want := tables[n].RejectsIncoming(i), refs[n].RejectsIncoming(i); got != want {
					t.Fatalf("op %d: node %d RejectsIncoming(%d) = %v, reference %v", k/2, n, i, got, want)
				}
			}
		}
	}
}

// FuzzDropTableGossip differentially checks the delta-gossip DropTable
// against the sorted-set reference over arbitrary interleavings of drops,
// merges, resets, forgets and clock steps.
func FuzzDropTableGossip(f *testing.F) {
	f.Add([]byte{0, 5, 5, 6, 0, 11, 5, 6, 3, 0, 0, 17, 5, 6})
	f.Add([]byte{0, 1, 5, 5, 0, 2, 0, 3, 5, 5, 3, 0, 0, 4, 5, 5, 8, 0, 0, 6, 3, 1, 0, 6, 5, 5})
	f.Add([]byte{0, 1, 0, 13, 3, 0, 5, 5, 9, 1, 5, 5, 3, 7, 0, 25, 5, 5})
	f.Fuzz(checkDropTableOps)
}

// TestDropTableMatchesReference runs the differential check over a fixed
// set of pseudo-random op streams on every plain test run.
func TestDropTableMatchesReference(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 2*(20+r.IntN(200)))
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		checkDropTableOps(t, ops)
	}
}
