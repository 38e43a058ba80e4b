package network

import (
	"testing"

	"sdsrp/internal/core"
	"sdsrp/internal/fault"
	"sdsrp/internal/geo"
	"sdsrp/internal/mobility"
	"sdsrp/internal/msg"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
)

// checkRegistry verifies the link registry: every live link sits at its
// slot and appears exactly once in each endpoint's adjacency, adjacency
// peers strictly ascend and name live links only, a churn-crashed node has
// no links, each busy flag matches the in-flight transfers on the node's
// links, and ActiveLinks agrees with the live slice.
func checkRegistry(t *testing.T, m *Manager) {
	t.Helper()
	for i, l := range m.live {
		if int(l.slot) != i {
			t.Fatalf("t=%v: link %v at live[%d] records slot %d", m.eng.Now(), l.key, i, l.slot)
		}
		for end, id := range l.key {
			peer := l.key[1-end]
			seen := 0
			for _, e := range m.adj[id] {
				if e.peer == peer {
					seen++
					if e.l != l {
						t.Fatalf("t=%v: adj[%d] entry for peer %d is not link %v", m.eng.Now(), id, peer, l.key)
					}
				}
			}
			if seen != 1 {
				t.Fatalf("t=%v: link %v appears %d times in adj[%d]", m.eng.Now(), l.key, seen, id)
			}
		}
	}
	entries := 0
	for id, adj := range m.adj {
		entries += len(adj)
		for i, e := range adj {
			if i > 0 && adj[i-1].peer >= e.peer {
				t.Fatalf("t=%v: adj[%d] peers not ascending: %d then %d", m.eng.Now(), id, adj[i-1].peer, e.peer)
			}
			if s := int(e.l.slot); s < 0 || s >= len(m.live) || m.live[s] != e.l {
				t.Fatalf("t=%v: adj[%d] holds dead link %v", m.eng.Now(), id, e.l.key)
			}
		}
		if m.isDown(id) && len(adj) > 0 {
			t.Fatalf("t=%v: crashed node %d keeps %d links", m.eng.Now(), id, len(adj))
		}
		sending := false
		for _, e := range adj {
			if e.l.busy && (e.l.xfer.sender.ID() == id || e.l.xfer.receiver.ID() == id) {
				sending = true
			}
		}
		if sending != m.busy[id] {
			t.Fatalf("t=%v: node %d busy=%v but in-flight transfer on its links=%v", m.eng.Now(), id, m.busy[id], sending)
		}
	}
	if entries != 2*len(m.live) {
		t.Fatalf("t=%v: %d adjacency entries for %d live links", m.eng.Now(), entries, len(m.live))
	}
	if m.ActiveLinks() != len(m.live) {
		t.Fatalf("t=%v: ActiveLinks()=%d, live=%d", m.eng.Now(), m.ActiveLinks(), len(m.live))
	}
}

// runChecked dispatches events one at a time up to horizon, checking the
// registry after each. It returns the largest adjacency list seen.
func runChecked(t *testing.T, eng *sim.Engine, m *Manager, horizon float64) int {
	t.Helper()
	maxDeg := 0
	for {
		before := eng.Processed()
		eng.SetMaxEvents(before + 1)
		eng.Run(horizon)
		if eng.Processed() == before {
			return maxDeg
		}
		checkRegistry(t, m)
		for _, adj := range m.adj {
			maxDeg = max(maxDeg, len(adj))
		}
	}
}

// checkExercised fails a registry run that never had a node with several
// links or never saw every fault path tear links down.
func checkExercised(t *testing.T, maxDeg int, metrics *obs.Metrics) {
	t.Helper()
	if maxDeg < 3 {
		t.Errorf("no node ever held more than %d links", maxDeg)
	}
	for _, typ := range []obs.Type{obs.ContactDown, obs.LinkFlap, obs.NodeDown, obs.TransferAbort, obs.TransferLost} {
		if metrics.Count(typ) == 0 {
			t.Errorf("no %s event", typ)
		}
	}
}

// churnWorld builds n random-waypoint hosts in a small area with link
// flapping, node churn and lossy transfers, and a message source per node.
func churnWorld(n int, scan string, tr obs.Tracer) (*sim.Engine, *Manager) {
	eng := sim.NewEngine()
	collector := stats.NewCollector()
	tracker := routing.NewTracker()
	inj := fault.New(fault.Config{
		LinkFlapMeanUp:   20,
		TransferLossProb: 0.2,
		Churn:            fault.Churn{MeanUp: 60, MeanDown: 15},
	}, rng.New(7).Split("fault"), n, nil)
	area := geo.NewRect(400, 400)
	hosts := make([]*routing.Host, n)
	models := make([]mobility.Model, n)
	for i := range hosts {
		hosts[i] = routing.NewHost(routing.HostConfig{
			ID: i, Nodes: n, Buffer: 2000,
			Policy: policy.FIFO{}, Proto: routing.SprayAndWait{Binary: true},
			Rate:  core.FixedRate{Mean: 600},
			Clock: eng.Now, Collector: collector, Tracker: tracker, Oracle: tracker,
			Role: inj.Role(i),
		})
		models[i] = mobility.NewRandomWaypoint(area, 2, 8, 0, 5, rng.New(uint64(100+i)))
	}
	m := mustManager(NewManager(eng, Config{
		Area: area, Range: 80, Bandwidth: 250, ScanInterval: 1, Scan: scan, Faults: inj, Tracer: tr,
	}, hosts, models, collector, nil))
	id := msg.ID(0)
	eng.Every(15, func(now float64) {
		id++
		src := int(id) % n
		hosts[src].Originate(&msg.Message{ID: id, Source: src, Dest: (src + 5) % n,
			Size: 500, Created: now, TTL: 600, InitialCopies: 8}, now)
		m.Kick(src, now)
	})
	return eng, m
}

// TestRegistryInvariants checks the registry after every event of runs with
// churn, flapping and loss, under each scan strategy and under a scheduled
// contact trace.
func TestRegistryInvariants(t *testing.T) {
	const n, horizon = 12, 900
	for _, scan := range []string{ScanNaive, ScanLazy, ScanKinetic} {
		t.Run(scan, func(t *testing.T) {
			metrics := obs.NewMetrics()
			eng, m := churnWorld(n, scan, metrics)
			m.Start()
			checkExercised(t, runChecked(t, eng, m, horizon), metrics)
		})
	}
	t.Run("scheduled", func(t *testing.T) {
		metrics := obs.NewMetrics()
		eng, m := churnWorld(n, "", metrics)
		// Overlapping, nested and back-to-back contacts over a star and a
		// ring, so adjacency lists grow past one entry in both orders.
		var trace []Contact
		for k := 0; k < 30; k++ {
			s := float64(25 * k)
			for i := 0; i < n; i++ {
				j := (i + 1 + k%3) % n
				trace = append(trace, Contact{A: i, B: j, Start: s + float64(i), End: s + float64(i) + 40})
			}
			trace = append(trace, Contact{A: k % n, B: (k + 6) % n, Start: s + 5, End: s + 10})
		}
		if err := m.StartScheduled(trace); err != nil {
			t.Fatal(err)
		}
		checkExercised(t, runChecked(t, eng, m, horizon), metrics)
	})
}

// TestNoIntermeetingKeepsNoContactEnds checks that a run without an
// intermeeting collector never allocates the per-pair contact-end map.
func TestNoIntermeetingKeepsNoContactEnds(t *testing.T) {
	eng, m := churnWorld(12, "", nil)
	m.Start()
	eng.Run(300)
	if m.durations.Count() == 0 {
		t.Fatal("degenerate run: no contact ended")
	}
	if m.lastEnd != nil {
		t.Fatalf("lastEnd holds %d entries without an intermeeting collector", len(m.lastEnd))
	}
}

// churnRig is two puppet hosts whose one message is lost on every
// transfer, so contacts cycle through up → transfer → complete → down
// without changing any buffer.
func churnRig() *rig {
	r := newFaultRig(2, 10000, fault.Config{TransferLossProb: 1}, nil)
	r.hosts[0].Originate(r.msg(1, 0, 1, 8, 500), 0)
	return r
}

// churnCycle brings the pair into contact for 7 s (one 5 s transfer
// completes and the next starts), then apart for 2 s.
func churnCycle(r *rig) {
	t := r.eng.Now()
	r.puppets[0].p = geo.Point{X: 0, Y: 0}
	r.puppets[1].p = geo.Point{X: 50, Y: 0}
	r.eng.Run(t + 7)
	r.puppets[1].p = geo.Point{X: 5000, Y: 0}
	r.eng.Run(t + 9)
}

// TestContactChurnAllocs pins the registry's steady-state cost: on a warm
// Manager one contact cycle allocates only its link and the link's
// completion handler.
func TestContactChurnAllocs(t *testing.T) {
	r := churnRig()
	for i := 0; i < 3; i++ {
		churnCycle(r)
	}
	contacts, started := r.mgr.Contacts(), r.collector.Started
	allocs := testing.AllocsPerRun(100, func() { churnCycle(r) })
	if got := r.mgr.Contacts() - contacts; got != 101 {
		t.Fatalf("%d contacts in 101 cycles", got)
	}
	if got := r.collector.Started - started; got != 202 {
		t.Fatalf("%d transfers started in 101 cycles, want 2 per contact", got)
	}
	if allocs > 2 {
		t.Fatalf("one contact cycle allocates %v times, want ≤ 2 (link + completion handler)", allocs)
	}
}

func BenchmarkContactChurn(b *testing.B) {
	r := churnRig()
	for i := 0; i < 3; i++ {
		churnCycle(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnCycle(r)
	}
}
