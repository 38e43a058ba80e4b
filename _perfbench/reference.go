package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
	"strconv"
)

// band is the accepted range of one policy's headline metrics.
type band struct {
	DeliveryRatio [2]float64 `json:"delivery_ratio"`
	OverheadRatio [2]float64 `json:"overhead_ratio"`
	AvgHops       [2]float64 `json:"avg_hops"`
}

// reference is reference.json: the output bands every op is checked
// against, and the fingerprint each recorded (workload, seed) produced.
type reference struct {
	Note string `json:"note"`
	// Observed holds, per workload and policy, the range of each headline
	// metric over every world of the recording seeds.
	Observed map[string]map[string]band `json:"observed"`
	// RecordSeeds are the seeds Observed was recorded from.
	RecordSeeds []uint64 `json:"record_seeds"`
	// Fingerprints maps workload → seed → the run fingerprint (hex).
	Fingerprints map[string]map[string]string `json:"fingerprints"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// bands widens each observed range by its own width (at least a tenth of
// its midpoint) on both sides, so an unseen seed passes while a broken
// engine — no deliveries, no forwarding, runaway hop counts — does not.
func (ref reference) bands(workload string) map[string]band {
	out := map[string]band{}
	for pol, b := range ref.Observed[workload] {
		out[pol] = band{
			DeliveryRatio: widen(b.DeliveryRatio, 0, 1),
			OverheadRatio: widen(b.OverheadRatio, 0, math.Inf(1)),
			AvgHops:       widen(b.AvgHops, 0, math.Inf(1)),
		}
	}
	return out
}

func widen(r [2]float64, lo, hi float64) [2]float64 {
	w := max(r[1]-r[0], 0.1*math.Abs(r[0]+r[1])/2)
	return [2]float64{max(lo, r[0]-w), min(hi, r[1]+w)}
}

// digestMatch compares a run's fingerprint with the recorded one for the
// same workload and seed: "match", "mismatch" or "unrecorded".
func (ref reference) digestMatch(workload string, seed uint64, fp string) string {
	want, ok := ref.Fingerprints[workload][strconv.FormatUint(seed, 10)]
	switch {
	case !ok:
		return "unrecorded"
	case want == fp:
		return "match"
	default:
		return "mismatch"
	}
}

// recordReference folds one run into the reference file at path (starting
// from the embedded copy if there is none): its fingerprint, and — unless
// heldOut — its worlds' headline metrics into Observed.
func recordReference(path, workload string, seed uint64, fp string, results []worldMetrics, heldOut bool) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err = referenceJSON, nil
	}
	if err != nil {
		return err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if ref.Fingerprints == nil {
		ref.Fingerprints = map[string]map[string]string{}
	}
	if ref.Fingerprints[workload] == nil {
		ref.Fingerprints[workload] = map[string]string{}
	}
	ref.Fingerprints[workload][strconv.FormatUint(seed, 10)] = fp
	if !heldOut {
		if ref.Observed == nil {
			ref.Observed = map[string]map[string]band{}
		}
		obsW := ref.Observed[workload]
		if obsW == nil {
			obsW = map[string]band{}
			ref.Observed[workload] = obsW
		}
		for _, m := range results {
			b, seen := obsW[m.policy]
			b.DeliveryRatio = extend(b.DeliveryRatio, m.delivery, seen)
			b.OverheadRatio = extend(b.OverheadRatio, m.overhead, seen)
			b.AvgHops = extend(b.AvgHops, m.hops, seen)
			obsW[m.policy] = b
		}
		if !containsSeed(ref.RecordSeeds, seed) {
			ref.RecordSeeds = append(ref.RecordSeeds, seed)
			sort.Slice(ref.RecordSeeds, func(i, j int) bool { return ref.RecordSeeds[i] < ref.RecordSeeds[j] })
		}
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// worldMetrics are the headline metrics of one finished world.
type worldMetrics struct {
	policy                   string
	delivery, overhead, hops float64
}

func extend(r [2]float64, v float64, seen bool) [2]float64 {
	if !seen {
		return [2]float64{v, v}
	}
	return [2]float64{min(r[0], v), max(r[1], v)}
}

func containsSeed(seeds []uint64, s uint64) bool {
	for _, x := range seeds {
		if x == s {
			return true
		}
	}
	return false
}
