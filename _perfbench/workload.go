package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"sdsrp/internal/bench"
	"sdsrp/internal/config"
	"sdsrp/internal/experiment"
	"sdsrp/internal/obs"
	"sdsrp/internal/report"
	"sdsrp/internal/world"
)

// workload is one input set the benchmark runs. A single-world workload
// builds, runs and reports one world per op, cycling through `cycle`
// scenario seeds derived from the benchmark seed; a sweep workload runs a
// registered experiment per op, all of whose worlds share one derived seed.
type workload struct {
	name string
	// scenario is the world a single-world op runs; for a sweep it is the
	// sweep's base world, which the set-up probes build.
	scenario func() config.Scenario
	// sweep names the experiment a sweep op runs ("" for single-world).
	sweep string
	// cycle is how many derived scenario seeds the ops rotate through.
	cycle int
}

var workloads = []workload{
	{name: "table2", scenario: config.RandomWaypoint, cycle: 8},
	{name: "table3", scenario: config.EPFL, cycle: 8},
	{name: "scan100k", scenario: bench.Scan100kScenario, cycle: 1},
	{name: "sweep-fig8buffer", scenario: config.RandomWaypoint, sweep: "fig8buffer", cycle: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scenarioSeed derives the i-th scenario seed of a benchmark seed
// (splitmix64), so every simulated input follows from --seed alone.
func scenarioSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// opTimeout bounds one world's wall time; a run that hits it stops with a
// typed timeout error and counts as a failed op.
const opTimeout = 120 * time.Second

// counts are the exact per-op work counters read from public results. Two
// ops of the same scenario seed must agree on every field.
type counts struct {
	Runs         uint64 `json:"runs"`
	Events       uint64 `json:"events"`
	PeakQueue    uint64 `json:"peak_queue"`
	NodeTicks    uint64 `json:"node_ticks"`
	Wakeups      uint64 `json:"wakeups"`
	PairsChecked uint64 `json:"pairs_checked"`
	PairsSkipped uint64 `json:"pairs_skipped"`
	Fallbacks    uint64 `json:"fallbacks"`
	Ups          uint64 `json:"ups"`
	Started      uint64 `json:"started"`
	Completed    uint64 `json:"completed"`
	Aborted      uint64 `json:"aborted"`
	Refused      uint64 `json:"refused"`
	Duplicates   uint64 `json:"duplicates"`
	PolicyDrops  uint64 `json:"policy_drops"`
	Expired      uint64 `json:"expired"`
	// DropRecords needs the World (single-world ops only); Downs and
	// ObsEvents need a tracer (traced single-world ops only).
	DropRecords uint64 `json:"drop_records"`
	Downs       uint64 `json:"downs"`
	ObsEvents   uint64 `json:"obs_events"`
}

func (c *counts) add(r world.Result) {
	c.Runs++
	c.Events += r.Perf.Events
	c.PeakQueue = max(c.PeakQueue, uint64(r.Perf.PeakQueue))
	c.NodeTicks += uint64(r.Scenario.Nodes) * uint64(math.Round(r.Scenario.Duration/r.Scenario.ScanInterval))
	c.Wakeups += r.Perf.Wakeups
	c.PairsChecked += r.Perf.PairsChecked
	c.PairsSkipped += r.Perf.PairsSkipped
	if r.Perf.ScanFallback != "" {
		c.Fallbacks++
	}
	c.Ups += uint64(r.Contacts)
	c.Started += uint64(r.Started)
	c.Completed += uint64(r.Forwards)
	c.Aborted += uint64(r.Aborted)
	c.Refused += uint64(r.Refused)
	c.Duplicates += uint64(r.Duplicates)
	c.PolicyDrops += uint64(r.PolicyDrops)
	c.Expired += uint64(r.ExpiredDrops)
}

// countingTracer is the obs.Tracer of a traced op: it counts events by
// type and keeps nothing else.
type countingTracer struct{ n [32]uint64 }

func (t *countingTracer) Emit(ev obs.Event) { t.n[int(ev.Type)%len(t.n)]++ }

func (t *countingTracer) total() (n uint64) {
	for _, v := range t.n {
		n += v
	}
	return n
}

// opStat is everything one op measured.
type opStat struct {
	index    int    // op number within the run
	seedIdx  int    // which derived scenario seed ran
	scenSeed uint64 // the scenario seed itself
	traced   bool
	// start is the op's offset from the start of the run.
	start time.Duration
	// build/run/result are the single-world phases; wall is the whole op.
	build, run, result, wall time.Duration
	// runWalls / runEnds are a sweep's per-world wall times and completion
	// offsets from the op's start, as ProgressStats reported them.
	runWalls, runEnds []time.Duration
	// cpu is the process CPU time and host steal during the op.
	cpu         cpuClock
	peakLive    uint64
	allocBytes  uint64
	allocs      uint64
	gcCycles    uint64
	fingerprint uint64
	counts      counts
	// results keeps the per-world outcomes for the checks.
	results []world.Result
	fails   []string
}

func (o *opStat) fail(format string, args ...any) {
	o.fails = append(o.fails, fmt.Sprintf(format, args...))
}

// heapSampler polls the live-heap metric (heap marked live by the latest
// GC) while an op runs and keeps the highest value seen.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, then collects once more while keep (the op's
// world) is still reachable, so the peak includes the finished world.
func (h *heapSampler) finish(keep any) uint64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	peak := max(h.peak, liveHeap())
	runtime.KeepAlive(keep)
	return peak
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// labelled runs f under profiler labels naming the op and phase, so a CPU
// profile can be split per op; without a profile it just calls f.
func labelled(profiling bool, op int, phase string, f func()) {
	if !profiling {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("op", strconv.Itoa(op), "phase", phase), func(context.Context) { f() })
}

// worldOp builds, runs and reports one world of a single-world workload.
func worldOp(wl workload, seed uint64, st opStat, profiling bool) opStat {
	sc := wl.scenario()
	sc.Seed = scenarioSeed(seed, st.seedIdx)
	st.scenSeed = sc.Seed
	var tr *countingTracer
	var opts []world.BuildOption
	if st.traced {
		tr = &countingTracer{}
		opts = append(opts, world.WithTracer(tr))
	}

	var (
		w   *world.World
		res world.Result
	)
	err := measure(&st, func() (any, error) {
		t0 := time.Now()
		var err error
		labelled(profiling, st.index, "build", func() { w, err = world.Build(sc, opts...) })
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		st.build = t1.Sub(t0)
		w.Engine.SetWallDeadline(t1.Add(opTimeout))
		labelled(profiling, st.index, "run", func() { res, err = w.Run() })
		t2 := time.Now()
		st.run = t2.Sub(t1)
		labelled(profiling, st.index, "result", func() { res = w.Result() })
		st.result = time.Since(t2)
		return w, err
	})
	if err != nil {
		st.fail("scenario seed %d: %v", sc.Seed, err)
		return st
	}

	st.results = []world.Result{res}
	st.counts.add(res)
	for _, h := range w.Hosts {
		if dt := h.DropTable(); dt != nil {
			st.counts.DropRecords += uint64(dt.Records())
		}
	}
	if tr != nil {
		st.counts.Downs = tr.n[obs.ContactDown]
		st.counts.ObsEvents = tr.total()
	}
	h := fnv.New64a()
	hashResult(h, res)
	st.fingerprint = h.Sum64()
	return st
}

// sweepOp runs the workload's experiment once through the public runner.
func sweepOp(wl workload, seed uint64, st opStat, workers int, profiling bool) opStat {
	spec, ok := experiment.ByName(wl.sweep)
	if !ok {
		st.fail("experiment %q not registered", wl.sweep)
		return st
	}
	st.scenSeed = scenarioSeed(seed, st.seedIdx)
	var (
		mu      sync.Mutex // guards what the sweep's worker goroutines append
		results []world.Result
		panels  []report.Panel
	)
	o := experiment.Options{
		Workers:    workers,
		Seeds:      []uint64{st.scenSeed},
		RunTimeout: opTimeout,
		OnResult: func(r world.Result) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
		ProgressStats: func(p experiment.ProgressInfo) {
			mu.Lock()
			st.runWalls = append(st.runWalls, p.LastRunWall)
			st.runEnds = append(st.runEnds, p.Elapsed)
			mu.Unlock()
		},
	}

	err := measure(&st, func() (any, error) {
		var err error
		labelled(profiling, st.index, "sweep", func() { panels, err = spec.Run(o) })
		return nil, err
	})
	st.run = st.wall
	if err != nil {
		st.fail("sweep %s seed %d: %v", wl.sweep, st.scenSeed, err)
		return st
	}
	if len(panels) == 0 {
		st.fail("sweep %s produced no panels", wl.sweep)
	}

	// Results arrive in completion order; fingerprint them by name.
	sort.Slice(results, func(i, j int) bool { return results[i].Scenario.Name < results[j].Scenario.Name })
	h := fnv.New64a()
	for _, r := range results {
		st.counts.add(r)
		hashStr(h, r.Scenario.Name)
		hashResult(h, r)
	}
	hashPanels(h, panels)
	st.results = results
	st.fingerprint = h.Sum64()
	return st
}

// measure runs f as one op after collecting the previous op's garbage. It
// records the op's wall time, CPU and host steal, allocation and GC
// cycles, and the peak live heap with f's returned value still reachable.
// A panic in f becomes its error.
func measure(st *opStat, f func() (keep any, err error)) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler()
	c0 := readCPUClock()
	t0 := time.Now()
	var keep any
	err := guard(func() (err error) {
		keep, err = f()
		return err
	})
	st.wall = time.Since(t0)
	st.cpu = readCPUClock().since(c0)
	runtime.ReadMemStats(&m1)
	st.peakLive = heap.finish(keep)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.allocs = m1.Mallocs - m0.Mallocs
	st.gcCycles = uint64(m1.NumGC - m0.NumGC)
	return err
}

// guard runs f, turning a panic into an error so one poisoned op is counted
// as failed instead of ending the run.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// setupProbe times world.Build of the workload's base scenario once.
func setupProbe(wl workload, seed uint64) (time.Duration, error) {
	sc := wl.scenario()
	sc.Seed = scenarioSeed(seed, 0)
	runtime.GC()
	t0 := time.Now()
	w, err := world.Build(sc)
	d := time.Since(t0)
	runtime.KeepAlive(w)
	return d, err
}

// hashResult fingerprints one world's observable outcome: the whole stats
// summary, contact counts and durations, and the engine's event counters.
// Scanner strategy counters are left out: they describe how the scan did
// its work, not what the simulation observed.
func hashResult(h io.Writer, r world.Result) {
	s := r.Summary
	for _, v := range []int{
		s.Created, s.Delivered, s.Forwards, s.Started, s.Aborted, s.Refused,
		s.Lost, s.PolicyDrops, s.ExpiredDrops, s.AckPurges, s.Duplicates,
		r.Contacts, r.Perf.PeakQueue,
	} {
		hashU64(h, uint64(int64(v)))
	}
	for _, v := range []float64{
		s.DeliveryRatio, s.AvgHops, s.OverheadRatio, s.AvgLatency,
		s.MedianLatency, s.P95Latency, r.MeanContactDuration,
	} {
		hashU64(h, math.Float64bits(v))
	}
	hashU64(h, r.Perf.Events)
}

func hashPanels(h io.Writer, panels []report.Panel) {
	for _, p := range panels {
		hashStr(h, p.ID)
		for _, c := range p.Curves {
			hashStr(h, c.Label)
			for _, y := range c.Y {
				hashU64(h, math.Float64bits(y))
			}
		}
	}
}

func hashU64(h io.Writer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashStr(h io.Writer, s string) {
	hashU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

// checkResult applies the per-world output checks: conservation visible in
// the summary, and the headline metrics against the reference band (skipped
// when bands is nil, while the bands are being recorded).
func checkResult(r world.Result, bands map[string]band) []string {
	var fails []string
	s := r.Summary
	if s.Forwards+s.Aborted+s.Refused+s.Lost > s.Started {
		fails = append(fails, fmt.Sprintf("%s: completed %d + aborted %d + refused %d + lost %d > started %d",
			r.Scenario.Name, s.Forwards, s.Aborted, s.Refused, s.Lost, s.Started))
	}
	if s.Delivered > s.Created {
		fails = append(fails, fmt.Sprintf("%s: delivered %d > created %d", r.Scenario.Name, s.Delivered, s.Created))
	}
	if bands == nil {
		return fails
	}
	b, ok := bands[r.Scenario.PolicyName]
	if !ok {
		return append(fails, fmt.Sprintf("%s: no reference band for policy %q", r.Scenario.Name, r.Scenario.PolicyName))
	}
	for _, m := range []struct {
		name string
		v    float64
		rng  [2]float64
	}{
		{"delivery_ratio", s.DeliveryRatio, b.DeliveryRatio},
		{"overhead_ratio", s.OverheadRatio, b.OverheadRatio},
		{"avg_hops", s.AvgHops, b.AvgHops},
	} {
		if !(m.v >= m.rng[0] && m.v <= m.rng[1]) {
			fails = append(fails, fmt.Sprintf("%s: %s %.4f outside reference band [%.4f, %.4f]",
				r.Scenario.Name, m.name, m.v, m.rng[0], m.rng[1]))
		}
	}
	return fails
}
