// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) by name
// and unit, ending with one JSON result line:
//
//	bash _perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package from the checkout and runs it from the
// repository root. README.md documents the workloads, the metrics and how
// to read them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// endToEnd names the end-to-end metrics, with their units, in report order.
var endToEnd = []struct{ Name, Unit string }{
	{"wall_s", "s"}, {"setup_s", "s"}, {"run_s", "s"}, {"runs_per_s", "1/s"}, {"peak_heap_mb", "MB"},
}

// minSamples is the CPU-profile sample count below which a [p] metric is
// reported but marked unresolved.
const minSamples = 20

// setupProbes is how many times a sweep builds its base world after each
// op to time set-up.
const setupProbes = 5

const mib = 1 << 20

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "benchmark seed; every scenario seed is derived from it")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the run report, spans and CPU profile")
	record := fs.String("record", "", "merge this run's fingerprint and output ranges into this reference file")
	heldOut := fs.Bool("held-out", false, "with -record, record the fingerprint only, not the output ranges")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	s := &session{
		wl: wl, seed: *seed, workers: runtime.GOMAXPROCS(0), epoch: time.Now(),
		host: readHost(), checkBands: *record == "" || *heldOut, bands: ref.bands(wl.name),
		firstFP: map[int]fingerprintAt{}, firstCounts: map[countsKey]counts{},
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rep := runReport{Host: s.host, Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: *trace}
	var metrics map[string]metricValue
	var profile []byte
	if *trace == 0 {
		metrics, err = s.endToEnd(budget)
	} else {
		metrics, profile, err = s.traced(budget)
	}
	if err != nil {
		for _, op := range s.ops {
			if len(op.fails) > 0 {
				fmt.Fprintf(stderr, "perfbench: op %d failed: %s\n", op.index, strings.Join(op.fails, "; "))
			}
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	attempted, failed := len(s.ops), 0
	for _, op := range s.ops {
		if len(op.fails) > 0 {
			failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("op %d: %s", op.index, strings.Join(op.fails, "; ")))
		}
	}
	fp, complete := s.runFingerprint()
	rep.Fingerprint = fp
	rep.DigestMatch = "incomplete"
	if complete {
		rep.DigestMatch = ref.digestMatch(wl.name, *seed, fp)
	}
	rep.FailedFrac = float64(failed) / float64(attempted)
	rep.Metrics = metrics
	rep.Ops = s.opSummaries()
	rep.Spans = s.spans()
	rep.TracedMatchedUntraced = s.traceMatches

	if *record != "" {
		if !complete || failed > 0 {
			fmt.Fprintln(stderr, "perfbench: not recording a run with failed or missing ops")
			return 1
		}
		if err := recordReference(*record, wl.name, *seed, fp, s.worldMetrics(), *heldOut); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
	}
	if err := writeOutputs(*outDir, rep, profile); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	printSummary(stdout, rep, attempted, failed)
	result := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]numberValue `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]numberValue{}}
	for k, v := range metrics {
		result.Metrics[k] = numberValue{v.Value, v.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metricValue is one reported metric with its provenance.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many ops (or, for [p] metrics, profile samples) the value
	// rests on.
	N int64 `json:"n"`
	// Tail is the highest percentile with at least ten ops beyond it, as
	// "p89=0.2481" ("" when the op count supports none).
	Tail string `json:"tail,omitempty"`
	// Unresolved says why the value cannot be trusted, if it cannot.
	Unresolved string `json:"unresolved,omitempty"`
}

type numberValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprintAt remembers the first fingerprint seen for a scenario seed.
type fingerprintAt struct {
	fp     uint64
	op     int
	traced bool
}

// countsKey groups ops whose counts must agree: same scenario seed, same
// tracing (only traced ops count tracer events).
type countsKey struct {
	seedIdx int
	traced  bool
}

// session is one benchmark run of one workload.
type session struct {
	wl         workload
	seed       uint64
	workers    int
	epoch      time.Time
	host       hostInfo
	checkBands bool
	bands      map[string]band
	ops        []opStat
	probes     []time.Duration
	// firstFP maps a scenario-seed index to its first fingerprint;
	// firstCounts maps (seed index, traced) to its first counts.
	firstFP     map[int]fingerprintAt
	firstCounts map[countsKey]counts
	// traceMatches counts traced ops whose fingerprint was compared with
	// an untraced op of the same scenario seed.
	traceMatches int
}

// runOps runs ops for at least d and at least one full cycle of scenario
// seeds, checking each as it finishes.
func (s *session) runOps(d time.Duration, traced, profiling bool) []opStat {
	start := time.Now()
	var out []opStat
	for i := 0; i < s.wl.cycle || time.Since(start) < d; i++ {
		st := opStat{index: len(s.ops), seedIdx: i % s.wl.cycle, traced: traced, start: time.Since(s.epoch)}
		if s.wl.sweep != "" {
			st = sweepOp(s.wl, s.seed, st, s.workers, profiling)
			if !traced {
				s.probeSetup(&st)
			}
		} else {
			st = worldOp(s.wl, s.seed, st, profiling)
		}
		s.check(&st)
		s.ops = append(s.ops, st)
		out = append(out, st)
	}
	return out
}

// probeSetup times setupProbes builds of a sweep's base world after an
// op. The sweep's runner builds its worlds out of the benchmark's reach;
// probing between ops keeps the process as warm as the ops themselves.
func (s *session) probeSetup(st *opStat) {
	for i := 0; i < setupProbes; i++ {
		p, err := setupProbe(s.wl, s.seed)
		if err != nil {
			st.fail("set-up probe: %v", err)
			return
		}
		s.probes = append(s.probes, p)
	}
}

// check applies the output checks to a finished op: per-world conservation
// and bands, a fingerprint equal to every other op of the same scenario
// seed (traced or not), and counts equal to every other op of the same
// seed and tracing.
func (s *session) check(st *opStat) {
	if len(st.fails) > 0 {
		return // the op errored; it has no outputs to check
	}
	bands := s.bands
	if !s.checkBands {
		bands = nil
	}
	for _, r := range st.results {
		for _, f := range checkResult(r, bands) {
			st.fail("%s", f)
		}
	}
	if prev, ok := s.firstFP[st.seedIdx]; !ok {
		s.firstFP[st.seedIdx] = fingerprintAt{st.fingerprint, st.index, st.traced}
	} else {
		if prev.fp != st.fingerprint {
			st.fail("fingerprint %016x differs from op %d (%016x) of the same scenario seed", st.fingerprint, prev.op, prev.fp)
		}
		if st.traced && !prev.traced {
			s.traceMatches++
		}
	}
	key := countsKey{st.seedIdx, st.traced}
	if prev, ok := s.firstCounts[key]; !ok {
		s.firstCounts[key] = st.counts
	} else if prev != st.counts {
		st.fail("counts %+v differ from an earlier op of the same scenario seed (%+v)", st.counts, prev)
	}
}

// runFingerprint hashes the first fingerprint of every scenario seed in
// cycle order; complete is false when some seed never produced one.
func (s *session) runFingerprint() (string, bool) {
	h := fnv.New64a()
	for i := 0; i < s.wl.cycle; i++ {
		f, ok := s.firstFP[i]
		if !ok {
			return "", false
		}
		hashU64(h, f.fp)
	}
	return fmt.Sprintf("%016x", h.Sum64()), true
}

// good returns the ops that passed every check.
func good(ops []opStat) []opStat {
	var out []opStat
	for _, op := range ops {
		if len(op.fails) == 0 {
			out = append(out, op)
		}
	}
	return out
}

func seconds(ops []opStat, f func(opStat) time.Duration) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = f(op).Seconds()
	}
	return out
}

func timing(xs []float64, unit string) metricValue {
	v := metricValue{Value: median(xs), Unit: unit, N: int64(len(xs))}
	if pct, tail, ok := tailPercentile(xs); ok {
		v.Tail = fmt.Sprintf("p%d=%.6g", pct, tail)
	}
	return v
}

// runSpans is run_s's sample set: World.Run per single-world op, or every
// world's wall time (build and simulate) within a sweep.
func (s *session) runSpans(ops []opStat) []float64 {
	if s.wl.sweep == "" {
		return seconds(ops, func(o opStat) time.Duration { return o.run })
	}
	var xs []float64
	for _, op := range ops {
		for _, w := range op.runWalls {
			xs = append(xs, w.Seconds())
		}
	}
	return xs
}

// endToEnd measures the workload untraced for d and reports the
// end-to-end metrics.
func (s *session) endToEnd(d time.Duration) (map[string]metricValue, error) {
	ops := good(s.runOps(d, false, false))
	if len(ops) == 0 {
		return nil, errors.New("no op passed its checks")
	}
	m := map[string]metricValue{}
	m["wall_s"] = timing(seconds(ops, func(o opStat) time.Duration { return o.wall }), "s")
	if s.wl.sweep == "" {
		m["setup_s"] = timing(seconds(ops, func(o opStat) time.Duration { return o.build }), "s")
	} else {
		xs := make([]float64, len(s.probes))
		for i, p := range s.probes {
			xs[i] = p.Seconds()
		}
		m["setup_s"] = timing(xs, "s")
	}
	m["run_s"] = timing(s.runSpans(ops), "s")
	m["runs_per_s"] = metricValue{Value: float64(ops[0].counts.Runs) / m["wall_s"].Value, Unit: "1/s", N: int64(len(ops))}
	heap := make([]float64, len(ops))
	for i, op := range ops {
		heap[i] = float64(op.peakLive) / mib
	}
	m["peak_heap_mb"] = timing(heap, "MB")
	return m, nil
}

// traced runs the workload untraced for half of d, then traced — counting
// tracer on every world, CPU profile on — for the other half, and reports
// the per-layer metrics. It also returns the raw profile.
func (s *session) traced(d time.Duration) (map[string]metricValue, []byte, error) {
	plain := good(s.runOps(d/2, false, false))
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	tracedOps := s.runOps(d/2, true, true)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	phase, spanWorkers := "run", 1
	if s.wl.sweep != "" {
		phase, spanWorkers = "sweep", s.workers
	}
	attr := attribute(samples, phase)

	for i := range tracedOps {
		op := &tracedOps[i]
		if got := attr.exclusive[op.index]; !fitsSpan(got, op.run, spanWorkers) {
			op.fail("attributed layer time %v exceeds run span %v × %d workers", got, op.run, spanWorkers)
			s.ops[op.index].fails = op.fails
		}
	}
	traced := good(tracedOps)
	if len(plain) == 0 || len(traced) == 0 {
		return nil, nil, errors.New("no untraced or no traced op passed its checks")
	}
	return s.layerValues(plain, traced, attr), buf.Bytes(), nil
}

// fitsSpan is the sum check: an op's exclusive layer time must fit in its
// run span times the workers sharing it. The engine runs flat out, so a
// correct partition lands near the span, and the check exists to catch
// double counting, which adds whole layers. The slack covers the profiler's
// sampling: it charges each 10 ms sample to whichever goroutine runs when
// the thread's timer fires, so CPU time other goroutines spent on the same
// thread (GC workers, the heap sampler) can land on the op. That costs up
// to a few periods per op, plus a few percent of a long op.
func fitsSpan(attributed, span time.Duration, workers int) bool {
	const samplePeriod = 10 * time.Millisecond
	return attributed <= time.Duration(workers)*(span+span/10+3*samplePeriod)
}

// layerValues computes every per-layer metric. Counts are per op, averaged
// over the first traced op of each scenario seed, so they repeat exactly
// for a seed; profile times are per op over all traced ops; timings and
// allocation figures come from the untraced ops.
func (s *session) layerValues(plain, traced []opStat, attr attribution) map[string]metricValue {
	sweep := s.wl.sweep != ""
	var cycle []opStat
	seen := map[int]bool{}
	for _, op := range traced {
		if !seen[op.seedIdx] {
			seen[op.seedIdx] = true
			cycle = append(cycle, op)
		}
	}
	count := func(f func(counts) uint64) float64 {
		var sum uint64
		for _, op := range cycle {
			sum += f(op.counts)
		}
		return float64(sum) / float64(len(cycle))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metricValue{}
	unit := map[string]string{}
	for _, l := range layerMetrics {
		unit[l.Name] = l.Unit
	}
	set := func(name string, v float64, n int64) {
		m[name] = metricValue{Value: v, Unit: unit[name], N: n}
	}
	cnt := func(name string, f func(counts) uint64) { set(name, count(f), int64(len(cycle))) }
	unresolved := func(name, why string) {
		m[name] = metricValue{Unit: unit[name], Unresolved: why}
	}
	const noWorld = "the sweep builds its worlds inside the experiment runner, out of the benchmark's reach"
	const noTracer = "the experiment runner takes no tracer"

	if sweep {
		unresolved("world.build_s", noWorld)
		unresolved("world.result_s", noWorld)
	} else {
		m["world.build_s"] = timing(seconds(traced, func(o opStat) time.Duration { return o.build }), "s")
		m["world.result_s"] = timing(seconds(traced, func(o opStat) time.Duration { return o.result }), "s")
	}
	cnt("sim.events", func(c counts) uint64 { return c.Events })
	cnt("sim.peak_queue", func(c counts) uint64 { return c.PeakQueue })
	for _, l := range profileLayers {
		pt := attr.layer[l.name]
		v := metricValue{Value: pt.seconds() / float64(len(traced)), Unit: "s", N: pt.samples}
		if pt.samples < minSamples {
			v.Unresolved = fmt.Sprintf("%d profile samples (< %d)", pt.samples, minSamples)
		}
		m[l.name] = v
	}
	cnt("scan.node_ticks", func(c counts) uint64 { return c.NodeTicks })
	cnt("scan.wakeups", func(c counts) uint64 { return c.Wakeups })
	cnt("scan.pairs_checked", func(c counts) uint64 { return c.PairsChecked })
	cnt("scan.pairs_skipped", func(c counts) uint64 { return c.PairsSkipped })
	cnt("scan.fallbacks", func(c counts) uint64 { return c.Fallbacks })
	runTime := median(s.runSpans(plain))
	if sweep {
		runTime = median(seconds(plain, func(o opStat) time.Duration { return o.wall }))
	}
	set("scan.node_ticks_per_s", ratio(count(func(c counts) uint64 { return c.NodeTicks }), runTime), int64(len(plain)))
	ups := count(func(c counts) uint64 { return c.Ups })
	set("scan.useful_frac", ratio(ups, count(func(c counts) uint64 { return c.PairsChecked })), int64(len(cycle)))
	cnt("contact.ups", func(c counts) uint64 { return c.Ups })
	cnt("transfer.started", func(c counts) uint64 { return c.Started })
	cnt("transfer.completed", func(c counts) uint64 { return c.Completed })
	cnt("transfer.aborted", func(c counts) uint64 { return c.Aborted })
	set("transfer.useful_frac", ratio(count(func(c counts) uint64 { return c.Completed }), count(func(c counts) uint64 { return c.Started })), int64(len(cycle)))
	cnt("routing.refused", func(c counts) uint64 { return c.Refused })
	cnt("routing.duplicates", func(c counts) uint64 { return c.Duplicates })
	cnt("policy.drops", func(c counts) uint64 { return c.PolicyDrops })
	set("policy.drops_per_contact", ratio(count(func(c counts) uint64 { return c.PolicyDrops }), ups), int64(len(cycle)))
	cnt("buffer.expired", func(c counts) uint64 { return c.Expired })
	if sweep {
		unresolved("contact.downs", noTracer)
		unresolved("core.drop_records", noWorld)
		unresolved("obs.events", noTracer)
	} else {
		cnt("contact.downs", func(c counts) uint64 { return c.Downs })
		cnt("core.drop_records", func(c counts) uint64 { return c.DropRecords })
		cnt("obs.events", func(c counts) uint64 { return c.ObsEvents })
	}
	set("obs.trace_overhead_frac", median(s.runSpans(traced))/median(s.runSpans(plain))-1, int64(len(traced)))

	cnt("experiment.runs", func(c counts) uint64 { return c.Runs })
	var busy, idle, straggle []float64
	for _, op := range plain {
		b, workers := (op.build + op.run + op.result).Seconds(), 1.0
		var strag float64
		if sweep {
			var runs []float64
			for _, w := range op.runWalls {
				runs = append(runs, w.Seconds())
			}
			b, workers = 0, float64(s.workers)
			for _, r := range runs {
				b += r
			}
			sort.Float64s(runs)
			strag = runs[len(runs)-1] - median(runs)
		}
		busy = append(busy, b)
		idle = append(idle, 1-b/(workers*op.wall.Seconds()))
		straggle = append(straggle, strag)
	}
	set("experiment.busy_s", median(busy), int64(len(plain)))
	set("experiment.idle_frac", median(idle), int64(len(plain)))
	set("experiment.straggler_s", median(straggle), int64(len(plain)))

	var alloc, allocs, gcs []float64
	for _, op := range plain {
		alloc = append(alloc, float64(op.allocBytes)/mib)
		allocs = append(allocs, float64(op.allocs))
		gcs = append(gcs, float64(op.gcCycles))
	}
	set("runtime.alloc_mb", median(alloc), int64(len(plain)))
	set("runtime.allocs", median(allocs), int64(len(plain)))
	set("runtime.gc_cycles", median(gcs), int64(len(plain)))
	return m
}

// worldMetrics lists the headline metrics of every world the run finished.
func (s *session) worldMetrics() []worldMetrics {
	var out []worldMetrics
	for _, op := range s.ops {
		for _, r := range op.results {
			out = append(out, worldMetrics{r.Scenario.PolicyName, r.DeliveryRatio, r.OverheadRatio, r.AvgHops})
		}
	}
	return out
}

// runReport is the run record written next to the build outputs.
type runReport struct {
	Host        hostInfo `json:"host"`
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Trace       int      `json:"trace"`
	Fingerprint string   `json:"fingerprint"`
	DigestMatch string   `json:"digest_match"`
	FailedFrac  float64  `json:"failed_frac"`
	// TracedMatchedUntraced counts traced ops whose fingerprint was checked
	// against an untraced op of the same scenario seed.
	TracedMatchedUntraced int                    `json:"traced_matched_untraced"`
	Failures              []string               `json:"failures,omitempty"`
	Metrics               map[string]metricValue `json:"metrics"`
	Ops                   []opSummary            `json:"ops"`
	Spans                 []span                 `json:"spans,omitempty"`
}

type opSummary struct {
	Index       int     `json:"index"`
	ScenSeed    uint64  `json:"scenario_seed"`
	Traced      bool    `json:"traced"`
	WallS       float64 `json:"wall_s"`
	CPUS        float64 `json:"cpu_s"`
	StealS      float64 `json:"host_steal_s"`
	Fingerprint string  `json:"fingerprint"`
	Counts      counts  `json:"counts"`
	Failed      bool    `json:"failed"`
}

func (s *session) opSummaries() []opSummary {
	out := make([]opSummary, len(s.ops))
	for i, op := range s.ops {
		out[i] = opSummary{op.index, op.scenSeed, op.traced, op.wall.Seconds(), op.cpu.cpu.Seconds(), op.cpu.steal.Seconds(),
			fmt.Sprintf("%016x", op.fingerprint), op.counts, len(op.fails) > 0}
	}
	return out
}

// span is one timed interval of a traced op, in seconds from the start of
// the run; Parent is the index of the enclosing span (-1 for an op).
type span struct {
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans lays out every traced op: op → build / run / result for a world,
// op → one span per world for a sweep (from ProgressStats).
func (s *session) spans() []span {
	var out []span
	for _, op := range s.ops {
		if !op.traced {
			continue
		}
		parent := len(out)
		t := op.start
		out = append(out, span{op.index, "op", -1, t.Seconds(), (t + op.wall).Seconds()})
		if s.wl.sweep != "" {
			for i, end := range op.runEnds {
				out = append(out, span{op.index, "world", parent, (t + end - op.runWalls[i]).Seconds(), (t + end).Seconds()})
			}
			continue
		}
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"build", op.build}, {"run", op.run}, {"result", op.result}} {
			out = append(out, span{op.index, p.name, parent, t.Seconds(), (t + p.d).Seconds()})
			t += p.d
		}
	}
	return out
}

// writeOutputs writes the run report (and, for a traced run, the CPU
// profile) under dir.
func writeOutputs(dir string, rep runReport, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, rep.Trace))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if profile != nil {
		return os.WriteFile(base+".pprof", profile, 0o644)
	}
	return nil
}

// printSummary prints the human-readable result: host, every metric with
// its unit and support, failures, and the fingerprint verdict.
func printSummary(w io.Writer, rep runReport, attempted, failed int) {
	h := rep.Host
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d seconds=%g host: %s, %d CPU, GOMAXPROCS=%d, %s/%s, %s, GOGC=%s, GOMEMLIMIT=%s\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Seconds, h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GOOS, h.GOARCH, h.GoVersion, h.GOGC, h.GOMEMLIMIT)
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	order := map[string]int{}
	for i, e := range endToEnd {
		order[e.Name] = i
	}
	for i, l := range layerMetrics {
		order[l.Name] = len(endToEnd) + i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, k := range names {
		v := rep.Metrics[k]
		note := fmt.Sprintf("n=%d", v.N)
		if v.Tail != "" {
			note += " " + v.Tail
		}
		if v.Unresolved != "" {
			note += " UNRESOLVED: " + v.Unresolved
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-6s %s\n", k, v.Value, v.Unit, note)
	}
	fmt.Fprintf(w, "  %-26s %14.6g %-6s %d of %d ops\n", "failed_frac", rep.FailedFrac, "frac", failed, attempted)
	fmt.Fprintf(w, "  digest_match %s (fingerprint %s)\n", rep.DigestMatch, rep.Fingerprint)
	if rep.Trace == 1 {
		fmt.Fprintf(w, "  traced fingerprints checked against untraced: %d ops\n", rep.TracedMatchedUntraced)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
}
