package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkResult fails unless res is clean and reports exactly the declared
// metrics, each with its declared unit.
func checkResult(t *testing.T, label string, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		got, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
		} else if got.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", label, name, got.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", label, name)
		}
	}
}

// TestShortRuns runs every workload small, twice untraced and once traced:
// every declared metric is printed with its unit, no op fails, and the
// fidelity gaps repeat exactly.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	endToEnd, perLayer := declared(t)
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			o := options{seed: 1, workdir: t.TempDir(), short: true}
			var runs []result
			for i := 0; i < 2; i++ {
				res, err := runEndToEnd(name, o, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, name, res, endToEnd)
				runs = append(runs, res)
			}
			for _, gap := range []string{"pond_gap_pct", "beacon_gap_pct"} {
				if a, b := runs[0].Metrics[gap].Value, runs[1].Metrics[gap].Value; a != b {
					t.Errorf("%s differs between runs: %v vs %v", gap, a, b)
				}
			}
			res, err := runTraced(name, o, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, name+" traced", res, perLayer)
		})
	}
}

// TestUniformMix runs the service small with the --mix uniform diagnostic,
// whose figures README.md compares with the benchmark's Zipf mix.
func TestUniformMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service end to end")
	}
	endToEnd, _ := declared(t)
	o := options{seed: 1, workdir: t.TempDir(), short: true, mix: "uniform"}
	res, err := runEndToEnd("service", o, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "service uniform", res, endToEnd)
}

// TestCountersTracedUntraced runs an untraced and a traced sweep loop on one
// set-up: the traced loop's first pass must reproduce the simulator
// counters exactly, or the sweep reports a failure.
func TestCountersTracedUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep")
	}
	inst, _, err := setupTimed("sweep", options{seed: 3, workdir: t.TempDir(), short: true}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	inst.loop(time.Millisecond, nil)
	inst.loop(time.Millisecond, newRecorder())
	if s := inst.(*sweep); s.counters == nil || len(s.fails) != 0 {
		t.Fatalf("counters %v, failures %v", s.counters, s.fails)
	}
}
