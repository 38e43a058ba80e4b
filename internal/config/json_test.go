package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdsrp/internal/fault"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	sc := EPFL()
	sc.Seed = 42
	sc.PolicyName = "SprayAndWait-O"
	if err := Save(sc, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.PolicyName != "SprayAndWait-O" || got.Nodes != sc.Nodes {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Mobility.Kind != MobilityTaxi {
		t.Fatalf("mobility kind = %v", got.Mobility.Kind)
	}
	if len(got.Mobility.Taxi.Hotspots) != len(sc.Mobility.Taxi.Hotspots) {
		t.Fatal("hotspots lost")
	}
}

// TestLoadRejectsUnknownFields pins the strict decoder. The Workers case
// is an otherwise valid scenario that still asks for the removed sharded
// scan: it must fail to load, not run serially without saying so.
func TestLoadRejectsUnknownFields(t *testing.T) {
	valid, err := json.Marshal(RandomWaypoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(valid); err != nil {
		t.Fatalf("base scenario rejected: %v", err)
	}
	withWorkers := []byte(string(valid[:len(valid)-1]) + `,"Workers":2}`)
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"typo":    []byte(`{"Name":"x","Bufersize":5}`),
		"workers": withWorkers,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: want an unknown-field error, got %v", name, err)
		}
	}
}

func TestLoadRejectsInvalidScenario(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "invalid.json")
	os.WriteFile(path, []byte(`{"Name":"x"}`), 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseGarbage(t *testing.T) {
	if _, err := Parse([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestFaultsJSONRoundTrip: a scenario with every fault axis set survives
// Save/Load bit-exactly, and an invalid Faults section is rejected at Load
// time (not at Build time).
func TestFaultsJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faulted.json")
	sc := RandomWaypoint()
	sc.Faults = fault.Config{
		TransferLossProb:  0.1,
		LinkFlapMeanUp:    120,
		BandwidthJitterLo: 0.7,
		BandwidthJitterHi: 1.1,
		Churn:             fault.Churn{MeanUp: 3000, MeanDown: 300, WipeOnReboot: true},
		BlackHoleFraction: 0.05,
		SelfishFraction:   0.1,
	}
	if err := Save(sc, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Faults, sc.Faults) {
		t.Fatalf("faults round trip:\n got %+v\nwant %+v", got.Faults, sc.Faults)
	}

	sc.Faults.TransferLossProb = 1.5 // out of [0,1]
	if err := Save(sc, path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("invalid fault config accepted at load time")
	}
}

// FuzzScenarioJSON is the parser's safety property: Parse never panics, and
// any scenario it accepts re-marshals to JSON that parses back to the same
// scenario (no field is silently dropped or mangled).
func FuzzScenarioJSON(f *testing.F) {
	seed := func(sc Scenario) {
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	seed(RandomWaypoint())
	seed(EPFL())
	faulted := RandomWaypoint()
	faulted.Faults = fault.Config{
		TransferLossProb: 0.2,
		Churn:            fault.Churn{MeanUp: 1000, MeanDown: 100},
	}
	seed(faulted)
	f.Add(`{"Name":"x"}`)
	f.Add(`{"Faults":{"TransferLossProb":2}}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := Parse([]byte(in))
		if err != nil {
			return
		}
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := Parse(data)
		if err != nil {
			t.Fatalf("marshal of an accepted scenario does not re-parse: %v", err)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("round trip changed the scenario:\n got %+v\nwant %+v", again, sc)
		}
	})
}
