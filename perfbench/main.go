// Command perfbench is the repository's end-to-end benchmark. It drives one
// of three closed-loop workloads from a single process — sweep (engine.Run
// over the paper-reproduction configs), service (the pifssim -serve HTTP
// handler backed by a disk result store) and fleet (a coordinator plus one
// warm pull worker answering /v1/run tables) — checks every operation's
// output, and prints one JSON result line.
//
//	perfbench --workload sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run (spans, a CPU profile split by
// module, simulator counters). README.md records why each workload and
// metric was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s is the median, and the last instance is the one measured.
const setupRepeats = 5

// options configure a workload instance.
type options struct {
	seed    uint64
	workdir string
	// short shrinks each workload's input set for the self-test.
	short bool
	// mix is the service's working-set draw: "zipf" (the benchmark's) or
	// "uniform" (a diagnostic).
	mix string
}

// instance is one workload. Its prepare function (workloads) builds its inputs and the
// reference outputs it checks against; start is the timed set-up the
// system itself needs, and close undoes it.
type instance interface {
	start(rec *recorder) error
	// loop runs the workload's clients for about d and returns every op.
	// rec is nil for an untraced loop.
	loop(d time.Duration, rec *recorder) loopResult
	// gaps returns the Fig 12(a) fidelity gaps (percent) from the results
	// this workload's path delivered.
	gaps() (pond, beacon float64)
	// layers adds the per-layer metrics this workload's path supplies.
	layers(rec *recorder, m metrics)
	// failures returns run-level check failures not tied to one op.
	failures() []string
	close()
}

// workloads maps each workload name to the function that prepares it.
var workloads = map[string]func(o options, rec *recorder) (instance, error){
	"sweep":   prepareSweep,
	"service": prepareService,
	"fleet":   prepareFleet,
}

// workloadOrder fixes the order a traced run visits the other workloads in.
var workloadOrder = []string{"sweep", "service", "fleet"}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sweep, service or fleet")
	seed := flag.Uint64("seed", 1, "workload seed; every trace and config is generated from it")
	seconds := flag.Float64("seconds", 20, "seconds to measure")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for stores and span dumps")
	mix := flag.String("mix", "zipf", "service working-set draws: zipf, or uniform as a diagnostic")
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have sweep, service, fleet)\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || (*mix != "zipf" && *mix != "uniform") {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1 and --mix zipf or uniform")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o := options{seed: *seed, workdir: *workdir, mix: *mix}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(*name, o, d)
	} else {
		res, err = runEndToEnd(*name, o, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setupTimed prepares the workload, then starts it n times, closing all
// but the last start, and returns the instance with every set-up time in
// seconds at the calibrated host speed (the kernel runs before the first
// start and after each, and a start is scaled by the mean of the two
// kernel times around it).
func setupTimed(name string, o options, n int, rec *recorder) (instance, []float64, error) {
	inst, err := workloads[name](o, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: preparing inputs: %w", name, err)
	}
	cal := newCalibrator()
	var times []float64
	before := cal.measure()
	for i := 0; i < n; i++ {
		if i > 0 {
			inst.close()
		}
		start := time.Now()
		if err := inst.start(rec); err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		took := time.Since(start).Seconds()
		after := cal.measure()
		times = append(times, took*calNominalMS/((before+after)/2))
		before = after
	}
	return inst, times, nil
}

// runEndToEnd is the untraced run: set up, measure, report end-to-end
// metrics.
func runEndToEnd(name string, o options, d time.Duration) (result, error) {
	inst, setups, err := setupTimed(name, o, setupRepeats, nil)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	debug.FreeOSMemory() // start the loop without the set-ups' garbage
	lr := inst.loop(d, nil)
	m := endToEnd(lr, median(setups))
	pond, beacon := inst.gaps()
	m.set("pond_gap_pct", pond, "%")
	m.set("beacon_gap_pct", beacon, "%")
	res := lr.result(m, inst.failures())
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops (%d failed) in %.1fs, setups %v\n",
		name, o.seed, res.Attempted, res.Failed, lr.wall.Seconds(), setups)
	return res, nil
}

// runTraced is the per-layer run. The named workload's loop alternates
// epochs: even ones run traced under a CPU profile, odd ones untraced and
// unprofiled, so tracing.overhead_pct compares a traced run with an
// untraced one of the same instance, and host drift between them is
// damped by the calibration. The other two workloads then run a traced loop
// of half the time each, so every layer's spans and counters are measured
// on every traced run. A sweep first runs one untraced pass on the same
// set-up, which its traced loop's first pass must reproduce counter for
// counter.
func runTraced(name string, o options, d time.Duration) (result, error) {
	rec := newRecorder()
	inst, _, err := setupTimed(name, o, 1, rec)
	if err != nil {
		return result{}, err
	}
	untracedPass(inst)
	rec.alternate, rec.prof = true, newProfile()
	lr := inst.loop(d, rec)
	rec.alternate = false
	split, err := rec.prof.split()
	rec.prof = nil
	if err != nil {
		inst.close()
		return result{}, err
	}
	m := metrics{}
	for mod, share := range split {
		m.set("cpu."+mod, share, "%")
	}
	lat, cpu := tracingOverhead(lr.samples)
	m.set("tracing.overhead_pct", lat, "%")
	m.set("tracing.cpu_overhead_pct", cpu, "%")
	inst.layers(rec, m)
	all := []loopResult{lr}
	fails := inst.failures()
	inst.close()

	for _, other := range workloadOrder {
		if other == name {
			continue
		}
		oi, _, err := setupTimed(other, o, 1, rec)
		if err != nil {
			return result{}, err
		}
		untracedPass(oi)
		all = append(all, oi.loop(d/2, rec))
		oi.layers(rec, m)
		fails = append(fails, oi.failures()...)
		oi.close()
	}
	if err := rec.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", name, o.seed)), m); err != nil {
		return result{}, err
	}
	merged := loopResult{}
	for _, lr := range all {
		merged.samples = append(merged.samples, lr.samples...)
		merged.errs = append(merged.errs, lr.errs...)
	}
	return merged.result(m, fails), nil
}

// untracedPass runs one untraced pass of a sweep, whose simulator counters
// the traced loop after it must reproduce; other workloads have none.
func untracedPass(inst instance) {
	if s, ok := inst.(*sweep); ok {
		s.loop(0, nil)
	}
}

// tracingOverhead compares the traced and untraced ops of one loop at the
// calibrated host speed: for latency and for CPU time, the median over keys
// of (median traced / median untraced - 1), in percent.
func tracingOverhead(samples []sample) (latency, cpu float64) {
	type sides struct{ ms, cpu [2][]float64 }
	byKey := map[int]*sides{}
	for _, s := range samples {
		v := byKey[s.key]
		if v == nil {
			v = &sides{}
			byKey[s.key] = v
		}
		t := 0
		if s.traced {
			t = 1
		}
		v.ms[t] = append(v.ms[t], s.ms*s.speed)
		v.cpu[t] = append(v.cpu[t], s.cpuMS*s.speed)
	}
	var relMS, relCPU []float64
	for _, v := range byKey {
		if len(v.ms[0]) > 0 && len(v.ms[1]) > 0 {
			relMS = append(relMS, median(v.ms[1])/median(v.ms[0])-1)
			if c := median(v.cpu[0]); c > 0 {
				relCPU = append(relCPU, median(v.cpu[1])/c-1)
			}
		}
	}
	return 100 * median(relMS), 100 * median(relCPU)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// sample is one timed operation.
type sample struct {
	// key names the op's input (a job, config or table); ops with equal
	// keys do identical work.
	key    int
	ms     float64
	cpuMS  float64 // process CPU while the op ran, divided by the client count
	speed  float64 // calibration factor of the op's epoch (see runClients)
	traced bool
	bags   int64
	failed bool
}

// loopResult is everything one closed loop measured.
type loopResult struct {
	samples []sample
	epochs  []epoch
	wall    time.Duration // the whole loop, calibration runs included
	alloc   uint64
	cal     []float64 // calibration kernel times, ms
	peakRSS float64   // MB
	errs    []string
}

// result folds the loop's op counts and any failure messages into the
// printed result. Run-level failures (extra) each count as one failed op.
func (lr loopResult) result(m metrics, extra []string) result {
	failed := len(extra)
	for _, s := range lr.samples {
		if s.failed {
			failed++
		}
	}
	for _, e := range append(lr.errs, extra...) {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	return result{
		Correct:   failed == 0,
		Attempted: len(lr.samples) + len(extra),
		Failed:    failed,
		Metrics:   m,
	}
}

// endToEnd computes the metrics a user of the workload would see from
// every op the loop ran, with host time scaled to the calibrated host speed
// epoch by epoch: throughput is ops (and bags) over calibrated epoch wall
// time, latency quantiles are over every op's calibrated latency, and CPU
// per op is calibrated process CPU over ops. The same figures unscaled go
// to stderr beside them.
func endToEnd(lr loopResult, setupS float64) metrics {
	var wall, cpu, rawWall, rawCPU float64
	for _, e := range lr.epochs {
		wall += e.wall.Seconds() * e.speed
		cpu += e.cpu.Seconds() * 1e3 * e.speed
		rawWall += e.wall.Seconds()
		rawCPU += e.cpu.Seconds() * 1e3
	}
	n := float64(len(lr.samples))
	ms := make([]float64, 0, len(lr.samples))
	raw := make([]float64, 0, len(lr.samples))
	var bags int64
	for _, s := range lr.samples {
		ms = append(ms, s.ms*s.speed)
		raw = append(raw, s.ms)
		bags += s.bags
	}
	sort.Float64s(ms)
	sort.Float64s(raw)
	m := metrics{}
	m.set("ops_per_s", n/wall, "1/s")
	m.set("bags_per_s", float64(bags)/wall, "1/s")
	m.set("op_p50_ms", quantile(ms, 0.5), "ms")
	m.set("op_p90_ms", quantile(ms, 0.9), "ms")
	m.set("cpu_ms_per_op", cpu/n, "ms")
	m.set("alloc_mb_per_op", float64(lr.alloc)/1e6/n, "MB")
	m.set("peak_rss_mb", lr.peakRSS, "MB")
	m.set("setup_s", setupS, "s")
	fmt.Fprintf(os.Stderr, "perfbench: unscaled: %.2f ops/s, %.0f bags/s, p50 %.2f ms, p90 %.2f ms, %.2f CPU ms/op over %d ops in %d epochs; calibration median %.2f ms (nominal %.0f)\n",
		n/rawWall, float64(bags)/rawWall, quantile(raw, 0.5), quantile(raw, 0.9), rawCPU/n,
		len(lr.samples), len(lr.epochs), median(lr.cal), calNominalMS)
	return m
}
