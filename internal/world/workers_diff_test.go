package world

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/obs"
)

// traceRun is one world's full JSONL trace and result.
type traceRun struct {
	trace []byte
	res   Result
	err   error
}

// runWorld builds and runs sc with its own JSONL tracer.
func runWorld(sc config.Scenario) traceRun {
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	w, err := Build(sc, WithTracer(jsonl))
	if err != nil {
		return traceRun{err: fmt.Errorf("build: %w", err)}
	}
	res, err := w.Run()
	if err != nil {
		return traceRun{err: fmt.Errorf("run: %w", err)}
	}
	if err := jsonl.Flush(); err != nil {
		return traceRun{err: fmt.Errorf("flush: %w", err)}
	}
	return traceRun{trace: buf.Bytes(), res: res}
}

// runConcurrently runs `workers` independent worlds of sc side by side, one
// goroutine each, the way the sweep runner's workers do.
func runConcurrently(sc config.Scenario, workers int) []traceRun {
	runs := make([]traceRun, workers)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = runWorld(sc)
		}()
	}
	wg.Wait()
	return runs
}

// workerCounts returns the deduplicated, sorted matrix {1, 2, 4, NumCPU}.
func workerCounts() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	var counts []int
	for w := range set {
		counts = append(counts, w)
	}
	sort.Ints(counts)
	return counts
}

// TestWorkerCountsMatchSerial pins the runner's one form of parallelism:
// whole worlds side by side in one process. Across every scenario family
// and seed of the scanner-differential matrix, each of `workers`
// concurrently running worlds, for workers ∈ {2, 4, NumCPU}, must emit a
// trace byte-identical to the same scenario run alone. A divergence means
// two worlds share mutable state (a package-level cache, RNG or pool) —
// the dynamic counterpart of dtnlint's shard-safety analyzers, and a data
// race under -race.
func TestWorkerCountsMatchSerial(t *testing.T) {
	counts := workerCounts()
	for name, mk := range diffFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			sc := mk()
			sc.Seed = seed
			sc.Name = fmt.Sprintf("wdiff-%s-%d", name, seed)
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				serial := runWorld(sc)
				if serial.err != nil {
					t.Fatalf("serial: %v", serial.err)
				}
				for _, workers := range counts[1:] {
					for i, par := range runConcurrently(sc, workers) {
						if par.err != nil {
							t.Fatalf("workers=%d world %d: %v", workers, i, par.err)
						}
						if !bytes.Equal(serial.trace, par.trace) {
							sl := bytes.Split(serial.trace, []byte("\n"))
							pl := bytes.Split(par.trace, []byte("\n"))
							n := min(len(sl), len(pl))
							for j := 0; j < n; j++ {
								if !bytes.Equal(sl[j], pl[j]) {
									t.Fatalf("workers=%d world %d diverges at trace line %d:\n  serial: %s\n  world:  %s",
										workers, i, j+1, sl[j], pl[j])
								}
							}
							t.Fatalf("trace length differs: serial %d lines, workers=%d world %d %d lines",
								len(sl), workers, i, len(pl))
						}
						resS, resP := serial.res, par.res
						if resS.Summary != resP.Summary {
							t.Fatalf("summaries diverge at workers=%d world %d:\nserial: %+v\nworld:  %+v",
								workers, i, resS.Summary, resP.Summary)
						}
						if resS.Contacts != resP.Contacts || resS.MeanContactDuration != resP.MeanContactDuration {
							t.Fatalf("contact digests diverge at workers=%d world %d", workers, i)
						}
						if resS.Perf.Events != resP.Perf.Events || resS.Perf.PeakQueue != resP.Perf.PeakQueue {
							t.Fatalf("event accounting diverges at workers=%d world %d: serial (%d, %d) world (%d, %d)",
								workers, i, resS.Perf.Events, resS.Perf.PeakQueue, resP.Perf.Events, resP.Perf.PeakQueue)
						}
					}
				}
			})
		}
	}
}
