package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"sdsrp/internal/config"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json must list exactly the workloads and metrics this program
// reports, under valid, unique names.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !metricName.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, metricName)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q (why %q), program %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower better")
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		name("per-layer", m.Name)
		if m.Name != layerMetrics[i].Name || m.Unit != layerMetrics[i].Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, layerMetrics[i].Name, layerMetrics[i].Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// Every per-layer metric names the end-to-end metric and workload it should
// move, unless it measures the benchmark's own cost.
func TestLayerMetricsNameWhatTheyMove(t *testing.T) {
	b := readBenchmarkJSON(t)
	e2e, wls := map[string]bool{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range b.Workloads {
		wls[w.Name] = true
	}
	for _, l := range layerMetrics {
		if len(l.Moves) == 0 && !l.OwnCost {
			t.Errorf("%s names no end-to-end metric it should move", l.Name)
		}
		for _, mv := range l.Moves {
			if !e2e[mv.Metric] || !wls[mv.Workload] {
				t.Errorf("%s should move %s on %s, which BENCHMARK.json does not define", l.Name, mv.Metric, mv.Workload)
			}
		}
	}
	profiled := map[string]bool{}
	for _, p := range profileLayers {
		profiled[p.name] = true
	}
	for _, l := range layerMetrics {
		if (l.Source == "p") != profiled[l.Name] {
			t.Errorf("%s: source %q but profile attribution %v", l.Name, l.Source, profiled[l.Name])
		}
	}
	for _, name := range exclusiveOrder {
		if !profiled[name] {
			t.Errorf("exclusive order names %s, which is not a profile layer", name)
		}
	}
}

// shortTable2 is Table II cut to a sixth of its horizon: the same layers at
// test cost.
var shortTable2 = workload{name: "table2-short", cycle: 2, scenario: func() config.Scenario {
	sc := config.RandomWaypoint()
	sc.Duration = 3000
	return sc
}}

func testSession(wl workload, seed uint64) *session {
	return &session{wl: wl, seed: seed, workers: 1, epoch: time.Now(),
		firstFP: map[int]fingerprintAt{}, firstCounts: map[countsKey]counts{}}
}

// The layer times attributed to a traced op must sum to no more than its
// run span; traced and untraced fingerprints must agree.
func TestTracedLayerSumWithinRunSpan(t *testing.T) {
	s := testSession(shortTable2, 7)
	metrics, profile, err := s.traced(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range s.ops {
		if len(op.fails) > 0 {
			t.Errorf("op %d failed: %v", op.index, op.fails)
		}
	}
	if s.traceMatches == 0 {
		t.Error("no traced op was compared with an untraced one")
	}
	samples, err := decodeCPUProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	attr := attribute(samples, "run")
	var attributed time.Duration
	for _, op := range s.ops {
		if !op.traced {
			continue
		}
		got := attr.exclusive[op.index]
		attributed += got
		if !fitsSpan(got, op.run, 1) {
			t.Errorf("op %d: attributed %v > run span %v", op.index, got, op.run)
		}
	}
	if attributed == 0 {
		t.Error("no profile time attributed to any layer")
	}
	for _, l := range layerMetrics {
		if _, ok := metrics[l.Name]; !ok {
			t.Errorf("traced run did not report %s", l.Name)
		}
	}
}

// [c] counts and fingerprints repeat exactly for a scenario seed, with and
// without the tracer.
func TestCountsRepeatForSameSeed(t *testing.T) {
	wl := shortTable2
	a := worldOp(wl, 3, opStat{seedIdx: 1, traced: true}, false)
	b := worldOp(wl, 3, opStat{seedIdx: 1, traced: true}, false)
	c := worldOp(wl, 3, opStat{seedIdx: 1}, false)
	for _, op := range []opStat{a, b, c} {
		if len(op.fails) > 0 {
			t.Fatalf("op failed: %v", op.fails)
		}
	}
	if a.counts != b.counts {
		t.Errorf("counts differ for the same seed:\n%+v\n%+v", a.counts, b.counts)
	}
	if a.counts.Events == 0 || a.counts.ObsEvents == 0 || a.counts.Downs == 0 {
		t.Errorf("traced counts missing work: %+v", a.counts)
	}
	if a.fingerprint != b.fingerprint || a.fingerprint != c.fingerprint {
		t.Errorf("fingerprints differ: traced %x %x, untraced %x", a.fingerprint, b.fingerprint, c.fingerprint)
	}
}

// A sweep op collects every world's result and per-world span from the
// runner's concurrent callbacks, passes the output checks, and repeats its
// fingerprint and counts.
func TestSweepOpRepeats(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := workloadByName("sweep-fig8buffer")
	bands := ref.bands(wl.name)
	var ops []opStat
	for i := 0; i < 2; i++ {
		op := sweepOp(wl, 5, opStat{}, 2, false)
		if len(op.fails) > 0 {
			t.Fatalf("sweep op failed: %v", op.fails)
		}
		if len(op.results) != 28 || len(op.runWalls) != 28 || op.counts.Runs != 28 {
			t.Fatalf("sweep op saw %d results, %d spans, %d runs; want 28 each", len(op.results), len(op.runWalls), op.counts.Runs)
		}
		for _, r := range op.results {
			for _, f := range checkResult(r, bands) {
				t.Error(f)
			}
		}
		ops = append(ops, op)
	}
	if ops[0].fingerprint != ops[1].fingerprint || ops[0].counts != ops[1].counts {
		t.Errorf("sweep ops of one seed differ: %x %+v vs %x %+v", ops[0].fingerprint, ops[0].counts, ops[1].fingerprint, ops[1].counts)
	}
}

// A held-out seed gives different inputs, hence a different fingerprint,
// and still passes every output check against the recorded bands.
func TestHeldOutSeedPassesChecks(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := workloadByName("table2")
	bands := ref.bands(wl.name)
	if len(bands) == 0 {
		t.Fatal("reference.json records no table2 bands")
	}
	var fps []uint64
	for _, seed := range []uint64{1, 1001} {
		op := worldOp(wl, seed, opStat{}, false)
		if len(op.fails) > 0 {
			t.Fatalf("seed %d: %v", seed, op.fails)
		}
		for _, f := range checkResult(op.results[0], bands) {
			t.Errorf("seed %d: %s", seed, f)
		}
		fps = append(fps, op.fingerprint)
	}
	if fps[0] == fps[1] {
		t.Error("seeds 1 and 1001 gave the same fingerprint")
	}
}

func spin(d time.Duration) (x int) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

var sink int

// The profile decoder recovers stacks and labels from runtime/pprof output.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("op", "4", "phase", "run"), func(context.Context) {
		sink += spin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var found int64
	for _, s := range samples {
		if stackHas(s.funcs, []string{"sdsrp/perfbench.spin"}) && s.labels["op"] == strconv.Itoa(4) && s.labels["phase"] == "run" {
			found += s.count
		}
	}
	if found < 5 {
		t.Errorf("found %d labelled samples in spin, want ≥ 5 of ~30", found)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v, ok := tailPercentile(xs); !ok || pct != 90 || v != 90 {
		t.Errorf("tailPercentile(1..100) = p%d %v %v, want p90 90", pct, v, ok)
	}
	if _, _, ok := tailPercentile(xs[:19]); ok {
		t.Error("19 samples should support no tail percentile")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
