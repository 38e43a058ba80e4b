package main

import (
	"strconv"
	"strings"
	"time"
)

// move names an end-to-end metric, and the workload on which a change in a
// per-layer metric should show in it.
type move struct{ Metric, Workload string }

// layerMetric documents one per-layer metric. Source is how it is measured:
// "c" an exact count from a public result or the counting tracer, "s" a span
// the benchmark times around its own call, "p" CPU-profile time attributed
// to the named boundary functions, "d" derived from the others.
type layerMetric struct {
	Name, Unit, Layer, Source string
	// Moves lists where a change in this metric should show end to end.
	// It is empty only for OwnCost metrics, which measure the benchmark.
	Moves   []move
	OwnCost bool
}

func moves(metric string, workloads ...string) []move {
	out := make([]move, len(workloads))
	for i, w := range workloads {
		out[i] = move{metric, w}
	}
	return out
}

func join(ms ...[]move) (out []move) {
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

// layerMetrics is the per-layer half of BENCHMARK.json, in order, with the
// end-to-end metric and workload each should move.
var layerMetrics = []layerMetric{
	{Name: "world.build_s", Unit: "s", Layer: "world", Source: "s", Moves: join(moves("setup_s", "scan100k"), moves("wall_s", "table2", "table3", "scan100k"))},
	{Name: "world.result_s", Unit: "s", Layer: "world", Source: "s", Moves: moves("wall_s", "table2", "table3", "scan100k")},
	{Name: "sim.events", Unit: "count", Layer: "sim", Source: "c", Moves: moves("run_s", "table2")},
	{Name: "sim.peak_queue", Unit: "count", Layer: "sim", Source: "c", Moves: moves("run_s", "table2")},
	{Name: "sim.self_s", Unit: "s", Layer: "sim", Source: "p", Moves: moves("run_s", "table2")},
	{Name: "mobility.pos_s", Unit: "s", Layer: "mobility", Source: "p", Moves: moves("run_s", "scan100k", "table3")},
	{Name: "scan.node_ticks", Unit: "count", Layer: "network-scan", Source: "c", Moves: moves("run_s", "scan100k", "table3")},
	{Name: "scan.wakeups", Unit: "count", Layer: "network-scan", Source: "c", Moves: moves("run_s", "scan100k", "table3")},
	{Name: "scan.pairs_checked", Unit: "count", Layer: "network-scan", Source: "c", Moves: moves("run_s", "scan100k", "table3")},
	{Name: "scan.pairs_skipped", Unit: "count", Layer: "network-scan", Source: "c", Moves: moves("run_s", "scan100k", "table3")},
	{Name: "scan.fallbacks", Unit: "count", Layer: "network-scan", Source: "c", Moves: moves("run_s", "table3")},
	{Name: "scan.geometry_s", Unit: "s", Layer: "network-scan", Source: "p", Moves: moves("run_s", "scan100k", "table3", "table2")},
	{Name: "scan.node_ticks_per_s", Unit: "1/s", Layer: "network-scan", Source: "d", Moves: moves("run_s", "scan100k", "table3")},
	{Name: "scan.useful_frac", Unit: "frac", Layer: "network-scan", Source: "d", Moves: moves("run_s", "scan100k", "table3")},
	{Name: "contact.ups", Unit: "count", Layer: "network-contacts", Source: "c", Moves: moves("run_s", "table2")},
	{Name: "contact.downs", Unit: "count", Layer: "network-contacts", Source: "c", Moves: moves("run_s", "table2")},
	{Name: "contact.self_s", Unit: "s", Layer: "network-contacts", Source: "p", Moves: moves("run_s", "table2")},
	{Name: "transfer.started", Unit: "count", Layer: "network-contacts", Source: "c", Moves: moves("run_s", "table2")},
	{Name: "transfer.completed", Unit: "count", Layer: "network-contacts", Source: "c", Moves: moves("run_s", "table2")},
	{Name: "transfer.aborted", Unit: "count", Layer: "network-contacts", Source: "c", Moves: moves("run_s", "table2")},
	{Name: "transfer.useful_frac", Unit: "frac", Layer: "network-contacts", Source: "d", Moves: moves("run_s", "table2")},
	{Name: "routing.linkup_s", Unit: "s", Layer: "routing", Source: "p", Moves: join(moves("run_s", "table2"), moves("runs_per_s", "sweep-fig8buffer"))},
	{Name: "routing.transfer_s", Unit: "s", Layer: "routing", Source: "p", Moves: join(moves("run_s", "table2"), moves("runs_per_s", "sweep-fig8buffer"))},
	{Name: "routing.refused", Unit: "count", Layer: "routing", Source: "c", Moves: join(moves("run_s", "table2"), moves("runs_per_s", "sweep-fig8buffer"))},
	{Name: "routing.duplicates", Unit: "count", Layer: "routing", Source: "c", Moves: join(moves("run_s", "table2"), moves("runs_per_s", "sweep-fig8buffer"))},
	{Name: "core.merge_s", Unit: "s", Layer: "core", Source: "p", Moves: moves("run_s", "table2", "table3")},
	{Name: "core.drop_records", Unit: "count", Layer: "core", Source: "c", Moves: moves("run_s", "table2", "table3")},
	{Name: "core.priority_s", Unit: "s", Layer: "core", Source: "p", Moves: moves("run_s", "table2", "table3")},
	{Name: "policy.rank_s", Unit: "s", Layer: "policy", Source: "p", Moves: join(moves("run_s", "table2"), moves("runs_per_s", "sweep-fig8buffer"))},
	{Name: "policy.drops", Unit: "count", Layer: "policy", Source: "c", Moves: join(moves("run_s", "table2"), moves("runs_per_s", "sweep-fig8buffer"))},
	{Name: "policy.drops_per_contact", Unit: "frac", Layer: "policy", Source: "d", Moves: join(moves("run_s", "table2"), moves("runs_per_s", "sweep-fig8buffer"))},
	{Name: "buffer.expired", Unit: "count", Layer: "buffer", Source: "c", Moves: moves("run_s", "sweep-fig8buffer")},
	{Name: "buffer.self_s", Unit: "s", Layer: "buffer", Source: "p", Moves: moves("run_s", "sweep-fig8buffer")},
	{Name: "obs.events", Unit: "count", Layer: "obs", Source: "c", OwnCost: true},
	{Name: "obs.trace_overhead_frac", Unit: "frac", Layer: "obs", Source: "d", OwnCost: true},
	{Name: "experiment.runs", Unit: "count", Layer: "experiment", Source: "c", Moves: moves("runs_per_s", "sweep-fig8buffer")},
	{Name: "experiment.busy_s", Unit: "s", Layer: "experiment", Source: "c", Moves: moves("runs_per_s", "sweep-fig8buffer")},
	{Name: "experiment.idle_frac", Unit: "frac", Layer: "experiment", Source: "d", Moves: moves("runs_per_s", "sweep-fig8buffer")},
	{Name: "experiment.straggler_s", Unit: "s", Layer: "experiment", Source: "d", Moves: moves("runs_per_s", "sweep-fig8buffer")},
	{Name: "runtime.alloc_mb", Unit: "MB", Layer: "runtime", Source: "c", Moves: moves("peak_heap_mb", "scan100k")},
	{Name: "runtime.allocs", Unit: "count", Layer: "runtime", Source: "c", Moves: moves("wall_s", "scan100k")},
	{Name: "runtime.gc_cycles", Unit: "count", Layer: "runtime", Source: "c", Moves: moves("wall_s", "scan100k")},
	{Name: "runtime.gc_s", Unit: "s", Layer: "runtime", Source: "p", Moves: join(moves("peak_heap_mb", "scan100k"), moves("wall_s", "scan100k"))},
}

// Boundary functions, by their names in a Go CPU profile.
const (
	pkgSim      = "sdsrp/internal/sim."
	pkgEventq   = "sdsrp/internal/eventq."
	pkgMobility = "sdsrp/internal/mobility."
	pkgNetwork  = "sdsrp/internal/network."
	pkgRouting  = "sdsrp/internal/routing."
	pkgCore     = "sdsrp/internal/core."
	pkgPolicy   = "sdsrp/internal/policy."
	pkgBuffer   = "sdsrp/internal/buffer."
	scanEntry   = pkgNetwork + "(*Manager).Scan"
)

var (
	// contactFns are the network layer's contact-handling functions: link
	// transitions, kicks and transfer scheduling. Under Manager.Scan they
	// are the subtree that is not geometry.
	contactFns = prefixed(pkgNetwork, "(*Manager).linkUp", "(*Manager).linkDown", "(*Manager).kick",
		"(*Manager).Kick", "(*Manager).tryStart", "(*Manager).startDirection", "(*Manager).complete",
		"(*Manager).chargeTransfer", "(*Manager).flapLink", "(*Manager).nodeDown", "(*Manager).nodeUp")
	linkupFns   = prefixed(pkgRouting, "(*Host).OnLinkUp", "(*Host).OnLinkDown")
	transferFns = prefixed(pkgRouting, "(*Host).NextOffer", "(*Host).PreAccept", "CommitTransfer")
	mergeFns    = prefixed(pkgCore, "(*DropTable).MergeFrom")
	priorityFns = append(prefixed(pkgCore, "Priority", "Exposure", "ProbWillDeliver"),
		prefixed(pkgRouting, "(*Host).SeenEstimate", "(*Host).LiveEstimate")...)
	rankFns = prefixed(pkgPolicy, "(*Orderer).SendOrder", "(*Orderer).PlanEviction", "SendOrder", "PlanEviction")
	gcFns   = []string{"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim"}
)

func prefixed(pkg string, names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = pkg + n
	}
	return out
}

// isFunc reports whether profile function fn is target or one of its
// closures.
func isFunc(fn, target string) bool {
	return fn == target || (strings.HasPrefix(fn, target) && strings.HasPrefix(fn[len(target):], ".func"))
}

func stackHas(funcs []string, targets []string) bool {
	for _, fn := range funcs {
		for _, t := range targets {
			if isFunc(fn, t) {
				return true
			}
		}
	}
	return false
}

func isGC(funcs []string) bool {
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "runtime.gc") && !strings.HasPrefix(fn, "runtime.gcWriteBarrier") {
			return true
		}
	}
	return stackHas(funcs, gcFns)
}

func isMobilityPos(funcs []string) bool {
	for _, fn := range funcs {
		if strings.HasPrefix(fn, pkgMobility) && strings.HasSuffix(fn, ".Pos") {
			return true
		}
	}
	return false
}

// innermostSim returns the innermost frame in the simulator's packages;
// "self" time is the samples whose innermost simulator frame is in a layer,
// so runtime helpers (map access, allocation) count toward the simulator
// function that called them. Time inside the benchmark's own tracer
// belongs to no layer's self time.
func innermostSim(funcs []string) string {
	for _, fn := range funcs {
		switch {
		case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "sdsrp/perfbench."):
			return ""
		case strings.HasPrefix(fn, "sdsrp/internal/"):
			return fn
		}
	}
	return ""
}

// profileLayers are the [p] metrics and their sample predicates.
var profileLayers = []struct {
	name  string
	match func(funcs []string) bool
}{
	{"sim.self_s", func(f []string) bool {
		in := innermostSim(f)
		return strings.HasPrefix(in, pkgSim) || strings.HasPrefix(in, pkgEventq)
	}},
	{"mobility.pos_s", isMobilityPos},
	{"scan.geometry_s", func(f []string) bool { return stackHas(f, []string{scanEntry}) && !stackHas(f, contactFns) }},
	{"contact.self_s", func(f []string) bool { return stackHas([]string{innermostSim(f)}, contactFns) }},
	{"routing.linkup_s", func(f []string) bool { return stackHas(f, linkupFns) }},
	{"routing.transfer_s", func(f []string) bool { return stackHas(f, transferFns) }},
	{"core.merge_s", func(f []string) bool { return stackHas(f, mergeFns) }},
	{"core.priority_s", func(f []string) bool { return stackHas(f, priorityFns) }},
	{"policy.rank_s", func(f []string) bool { return stackHas(f, rankFns) }},
	{"buffer.self_s", func(f []string) bool { return strings.HasPrefix(innermostSim(f), pkgBuffer) }},
	{"runtime.gc_s", isGC},
}

// exclusiveOrder partitions samples for the sum check: each sample goes to
// the first layer that claims it, innermost layers first, so nested
// inclusive layers (merge inside link-up, ranking inside transfer) are not
// counted twice. GC is left out: its background workers run beside an op,
// on another CPU, not inside the op's span.
var exclusiveOrder = []string{
	"core.merge_s", "core.priority_s", "policy.rank_s",
	"routing.transfer_s", "routing.linkup_s", "mobility.pos_s", "buffer.self_s",
	"contact.self_s", "scan.geometry_s", "sim.self_s",
}

// profileTime is one [p] metric: CPU seconds and the samples behind them.
type profileTime struct {
	nanos   int64
	samples int64
}

func (p profileTime) seconds() float64 { return float64(p.nanos) / 1e9 }

// attribution is a traced phase's CPU profile split by layer: inclusive
// per-metric totals over the attributed phase of every traced op, the GC
// total over the whole profile, and each op's exclusive layer sum.
type attribution struct {
	layer     map[string]profileTime
	exclusive map[int]time.Duration // op index → exclusive layer CPU time, GC excluded
}

// attribute splits samples. Only samples labelled with phase (the run
// phase of a world op, or the whole sweep) count toward a layer, except
// GC, whose background workers carry no labels and count wherever they
// appear: the profile is on only while traced ops run.
func attribute(samples []stackSample, phase string) attribution {
	a := attribution{layer: map[string]profileTime{}, exclusive: map[int]time.Duration{}}
	byName := map[string]func([]string) bool{}
	for _, l := range profileLayers {
		byName[l.name] = l.match
	}
	for _, s := range samples {
		gc := isGC(s.funcs)
		inPhase := s.labels["phase"] == phase
		for _, l := range profileLayers {
			if (l.name == "runtime.gc_s" || inPhase) && l.match(s.funcs) {
				pt := a.layer[l.name]
				pt.nanos += s.nanos
				pt.samples += s.count
				a.layer[l.name] = pt
			}
		}
		if !inPhase || gc {
			continue
		}
		op, err := strconv.Atoi(s.labels["op"])
		if err != nil {
			continue
		}
		for _, name := range exclusiveOrder {
			if byName[name](s.funcs) {
				a.exclusive[op] += time.Duration(s.nanos)
				break
			}
		}
	}
	return a
}
