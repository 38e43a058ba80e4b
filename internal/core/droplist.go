package core

import (
	"sdsrp/internal/msg"
)

// dropLog is one owner's drops in one epoch: message ids in drop order,
// without duplicates (an id is logged twice only if re-dropped after
// Forget, which expiry rules out). Only the owner appends, and no entry is
// ever rewritten, so every prefix of the log can be shared by reference. A
// churn Reset starts a new log, so the log's identity is the epoch.
type dropLog struct{ ids []msg.ID }

// dropRecord is one table's cached copy of a node's dropped-message record
// (paper Fig. 5): the messages that node has evicted, stamped with the time
// of its latest drop. The id set is not a copy but the first n entries of
// the owner's log, so gossip copies three words, and two records of one
// owner in the same epoch differ only by a tail of the log, which is all a
// merge has to count.
type dropRecord struct {
	time float64  // generation time: the owner's latest drop
	n    int      // length of the log prefix the record covers
	log  *dropLog // the owner's log for the record's epoch; nil = no record
}

// ids returns the record's id set.
func (r *dropRecord) ids() []msg.ID { return r.log.ids[:r.n] }

// DropTable is a node's view of every node's drop record, gossiped on
// contact. It answers two questions for SDSRP:
//
//   - d̂_i (DroppedCount): how many nodes are known to have dropped message
//     i, feeding n_i via Eq. 14;
//   - RejectsIncoming: whether this node itself has dropped i and must
//     refuse to receive it again ("nodes reject receiving the message
//     already in their dropped lists").
//
// Storage is owner-indexed and id-indexed: records[owner] is the newest
// known record for that node, and counts[id] holds twice the number of
// owners whose record lists id, plus one when this node dropped id itself
// (the own-drop flag sits in the low bit, which ±2 count updates never
// touch). Both slices grow on demand, so the table still accepts sparse or
// test-fabricated ids; real runs use the world's dense 1..K numbering.
//
// Performance contract: a merge costs one time comparison per peer record
// plus one count update per id that changed hands; steady-state gossip
// neither copies ids nor allocates.
type DropTable struct {
	self    int
	records []dropRecord // owner -> newest known record; nil log = none
	nrec    int          // records with a log (Records)
	counts  []int32      // message id -> 2·#owners listing it | own-drop bit
}

// ownDrop is the low bit of counts[id]: this node dropped id itself.
const ownDrop = 1

// NewDropTable returns an empty table for node self.
func NewDropTable(self int) *DropTable {
	return &DropTable{self: self}
}

// growRecords makes records[owner] addressable.
func (t *DropTable) growRecords(owner int) {
	if owner >= len(t.records) {
		t.records = append(t.records, make([]dropRecord, owner+1-len(t.records))...)
	}
}

// add adds delta to counts[id], growing the index as needed.
func (t *DropTable) add(id msg.ID, delta int32) {
	if int(id) >= len(t.counts) {
		t.counts = append(t.counts, make([]int32, int(id)+1-len(t.counts))...)
	}
	t.counts[id] += delta
}

// addAll adds delta to the count of every id in ids.
func (t *DropTable) addAll(ids []msg.ID, delta int32) {
	for _, id := range ids {
		t.add(id, delta)
	}
}

// RecordDrop registers that this node evicted message id at time now,
// updating its own record's generation time (only the owner may do this).
func (t *DropTable) RecordDrop(id msg.ID, now float64) {
	t.growRecords(t.self)
	rec := &t.records[t.self]
	if rec.log == nil {
		rec.log = &dropLog{}
		t.nrec++
	}
	rec.time = now
	if t.RejectsIncoming(id) {
		return
	}
	t.add(id, 2|ownDrop)
	rec.log.ids = append(rec.log.ids, id)
	rec.n++
}

// MergeFrom absorbs every record in the peer's table that is newer than the
// locally cached copy for the same owner, following the Fig. 5 update rule:
// a record is replaced only when the peer's record time is strictly newer,
// and a node's own record is authoritative and never overwritten by gossip.
// Several drops at one instant share a record time, so a node that cached
// the first of them learns the rest only with the owner's next drop; the
// log length is the delta cursor, never the thing compared.
//
// Within one owner epoch both records are prefixes of the same log, so only
// the ids between the two lengths change the counts. A record replaced
// across epochs (the owner rebooted under churn) is recounted in full.
func (t *DropTable) MergeFrom(peer *DropTable) {
	t.growRecords(len(peer.records) - 1)
	mine := t.records[:len(peer.records)]
	for owner := range peer.records {
		rec, cur := &peer.records[owner], &mine[owner]
		if rec.log == nil || (cur.log != nil && cur.time >= rec.time) || owner == t.self {
			continue
		}
		switch {
		case cur.log == nil:
			t.nrec++
			t.addAll(rec.ids(), 2)
		case cur.log != rec.log:
			t.addAll(cur.ids(), -2)
			t.addAll(rec.ids(), 2)
		case rec.n >= cur.n:
			t.addAll(rec.log.ids[cur.n:rec.n], 2)
		default: // an older clock stamped a longer prefix; count it back
			t.addAll(cur.log.ids[rec.n:cur.n], -2)
		}
		*cur = *rec
	}
}

// DroppedCount returns d̂_i: the number of distinct nodes known to have
// dropped message id.
func (t *DropTable) DroppedCount(id msg.ID) int {
	if int(id) >= len(t.counts) || id < 0 {
		return 0
	}
	return max(0, int(t.counts[id]>>1))
}

// RejectsIncoming reports whether this node previously dropped id itself
// and therefore refuses to store it again.
func (t *DropTable) RejectsIncoming(id msg.ID) bool {
	return int(id) < len(t.counts) && id >= 0 && t.counts[id]&ownDrop != 0
}

// Forget clears this node's own rejection of id and its count: used when a
// message expires globally, after which neither can influence a decision.
// The cached records keep listing id — they are shared with their owners —
// so a later merge may count it again; nothing reads that count, because
// TTL expiry removes the message from every buffer in one event. Calling
// Forget for a live message would corrupt d̂_i, so callers gate it on
// expiry.
func (t *DropTable) Forget(id msg.ID) {
	if int(id) < len(t.counts) && id >= 0 {
		t.counts[id] = 0
	}
}

// Records returns the number of owner records known (diagnostics).
func (t *DropTable) Records() int { return t.nrec }

// Reset discards every record — the node's own and all gossiped copies —
// and starts a new own epoch, so the node's next drops begin a fresh log
// instead of overwriting the one its peers still share. Used by the fault
// layer's crash/reboot churn when a reboot wipes state; peers still hold
// (and will re-gossip) this node's old record.
func (t *DropTable) Reset() {
	clear(t.records)
	t.nrec = 0
	clear(t.counts)
}
