// Package msg defines DTN messages and the per-node state of a stored copy.
//
// A Message is the immutable identity of a bundle (source, destination,
// size, TTL). A Stored is one node's copy of it: the remaining spray count
// C_i, the hop count of this copy, and the lineage of binary-spray split
// times used by SDSRP's m_i estimator (paper Eq. 15 / Fig. 6).
//
//lint:shard-safe plain data types; no package state
package msg

// ID identifies a message network-wide.
type ID int32

// Message is the immutable part of a DTN bundle, shared by all copies.
type Message struct {
	ID            ID
	Source, Dest  int     // node ids
	Size          int64   // bytes
	Created       float64 // simulation seconds
	TTL           float64 // lifetime in seconds from Created
	InitialCopies int     // L in Spray-and-Wait; C in the paper's Table I
}

// Expiry returns the absolute time at which the message dies.
func (m *Message) Expiry() float64 { return m.Created + m.TTL }

// Expired reports whether the message is dead at time now.
func (m *Message) Expired(now float64) bool { return now >= m.Expiry() }

// Remaining returns R_i, the remaining TTL at time now, clamped at 0.
func (m *Message) Remaining(now float64) float64 {
	r := m.Expiry() - now
	if r < 0 {
		return 0
	}
	return r
}

// Elapsed returns T_i, the time since generation, clamped at 0.
func (m *Message) Elapsed(now float64) float64 {
	t := now - m.Created
	if t < 0 {
		return 0
	}
	return t
}

// Stored is one node's copy of a message.
type Stored struct {
	M          *Message
	Copies     int     // C_i: spray tokens held by this node
	ReceivedAt float64 // when this node obtained the copy (creation time at the source)
	Hops       int     // hops this copy has traveled from the source
	Forwarded  int     // times this node has forwarded the copy (MOFO policy)
	// SprayTimes is the ascending list of binary-split times along this
	// copy's lineage, from the first split at the source to the split that
	// produced (or last divided) this copy. SDSRP uses it to estimate
	// m_i(T_i) per Eq. 15.
	SprayTimes []float64

	seen seenMemo
}

// seenMemo caches one Eq. 15 estimate of a copy together with every input
// that produced it (see CachedSeen). It is 32 bytes, which keeps Stored in
// the 96-byte allocation size class.
type seenMemo struct {
	now, eiMin float64
	// copies, sprayLen and nodes are the remaining inputs; seen1 is the
	// estimate plus one, so the zero memo holds nothing.
	copies, sprayLen, nodes, seen1 int32
}

// CachedSeen returns the m̂ estimate memoized by CacheSeen when it was made
// for exactly these inputs: the clock now, the rate estimate eiMin, the
// node count, and the copy's current Copies and SprayTimes.
//
// The memo is sound because the estimate is a pure function of those
// inputs and every one of them is compared: SprayTimes only ever grows by
// appending, so its length pins its content, and the rest are compared
// bitwise. A hit therefore returns what recomputing would, bit for bit, no
// matter which host scores the copy.
func (s *Stored) CachedSeen(now, eiMin float64, nodes int) (int, bool) {
	m := &s.seen
	if m.seen1 == 0 || m.now != now || m.eiMin != eiMin || int(m.nodes) != nodes ||
		int(m.copies) != s.Copies || int(m.sprayLen) != len(s.SprayTimes) {
		return 0, false
	}
	return int(m.seen1) - 1, true
}

// CacheSeen memoizes seen as the estimate for the inputs CachedSeen
// compares. Values that do not fit the compact memo clear it instead.
func (s *Stored) CacheSeen(now, eiMin float64, nodes, seen int) {
	m := seenMemo{now: now, eiMin: eiMin, copies: int32(s.Copies),
		sprayLen: int32(len(s.SprayTimes)), nodes: int32(nodes), seen1: int32(seen + 1)}
	if int(m.copies) != s.Copies || int(m.sprayLen) != len(s.SprayTimes) ||
		int(m.nodes) != nodes || int(m.seen1) != seen+1 {
		m = seenMemo{}
	}
	s.seen = m
}

// NewSourceCopy returns the copy held by the source at generation time.
func NewSourceCopy(m *Message) *Stored {
	return &Stored{M: m, Copies: m.InitialCopies, ReceivedAt: m.Created}
}

// Split performs a binary spray at time now: the receiver's copy gets
// ⌊C/2⌋ tokens and the sender keeps ⌈C/2⌉. Both lineages record the split.
// Split panics if the sender has fewer than 2 tokens; wait-phase copies must
// not be sprayed.
func (s *Stored) Split(now float64) *Stored {
	if s.Copies < 2 {
		//lint:invariant the protocol offers KindSpray only for Copies >= 2 (wait-phase copies relay or hand off)
		panic("msg: Split on a wait-phase copy")
	}
	give := s.Copies / 2
	keep := s.Copies - give
	history := make([]float64, len(s.SprayTimes)+1)
	copy(history, s.SprayTimes)
	history[len(history)-1] = now

	s.Copies = keep
	s.SprayTimes = append(s.SprayTimes, now)

	return &Stored{
		M:          s.M,
		Copies:     give,
		ReceivedAt: now,
		Hops:       s.Hops + 1,
		SprayTimes: history,
	}
}

// Relay returns the copy created at a non-spraying forward (Epidemic or
// direct delivery): the receiver gets an equal view of the message with the
// hop count advanced. Token count is whatever the caller decides.
func (s *Stored) Relay(now float64, copies int) *Stored {
	history := make([]float64, len(s.SprayTimes))
	copy(history, s.SprayTimes)
	return &Stored{
		M:          s.M,
		Copies:     copies,
		ReceivedAt: now,
		Hops:       s.Hops + 1,
		SprayTimes: history,
	}
}

// WaitPhase reports whether this copy may only be delivered directly to the
// destination (single spray token left).
func (s *Stored) WaitPhase() bool { return s.Copies <= 1 }
