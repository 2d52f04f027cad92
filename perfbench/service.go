package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/serve"
	"pifsrec/internal/sim"
	"pifsrec/internal/trace"
)

// The request mix. No usage record of the service exists, so these
// proportions are chosen, not measured (README.md, "Traffic mix"); the
// --mix uniform diagnostic replaces the Zipf draws with uniform ones to show
// how far the figures depend on the skew.
const (
	serviceClients = 2   // one closed-loop client per core of the reference box
	workingSetMore = 12  // configs besides the 12 Fig 12(a) ones
	rankStride     = 5   // popularity rank r draws working-set entry r*5 mod size
	mixCycle       = 10  // of every 10 requests a client sends, one fetches
	mixRun         = 0   // a /v1/run table (slot 0) and one posts a
	mixNew         = 5   // never-seen config (slot 5)
	zipfS          = 1.2 // skew of working-set draws
)

// serviceTables are the experiment tables clients fetch through /v1/run;
// the set-up warms them into the store.
var serviceTables = []string{"fig12a", "fig12d", "fig13b"}

// wsEntry is one working-set config with its reference result.
type wsEntry struct {
	spec serve.ConfigSpec
	cfg  engine.Config
	ref  []byte // JSON of the direct engine.Run result, Sched cleared
	bags int
	// fig12aModel names the model of a Fig 12(a) config ("" for others).
	fig12aModel string
}

type service struct {
	seed    uint64
	workdir string
	uniform bool // draw working-set configs uniformly instead of by Zipf
	ws      []wsEntry
	// tableBags is the bag count behind each served table.
	tableBags map[string]int64

	store  *memo.Store
	probe  *memo.Store // scratch store the traced run's memo spans use
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	loops  uint64

	mu         sync.Mutex
	tables     map[string][]byte // first response per table; repeats must match
	fig12a     map[string]map[engine.Scheme]float64
	fresh      uint64              // never-seen configs issued so far
	memoCounts map[string][2]int64 // op kind -> X-Memo-Hits, X-Memo-Misses
	probes     []memoProbe         // traced working-set ops, for layers
	fails      []string
}

// specConfig materializes a working-set spec exactly as the service does
// (serve.ConfigSpec): every field the benchmark sets is explicit, and the
// server generates the trace with batch size 4, bag size 32 and seed 7.
func specConfig(cs serve.ConfigSpec) (engine.Config, error) {
	var m dlrm.ModelConfig
	for _, cand := range dlrm.Models() {
		if cand.Name == cs.Model {
			m = cand.Scaled(cs.Scale)
		}
	}
	tr, err := trace.Generate(trace.Spec{
		Kind: trace.Kind(cs.Trace), Tables: m.Tables, RowsPerTable: m.EmbRows,
		Batches: cs.Batches, BatchSize: 4, BagSize: 32, Seed: 7,
	})
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Scheme: engine.Scheme(cs.Scheme), Model: m, Trace: tr,
		Devices: cs.Devices, Switches: cs.Switches, Hosts: cs.Hosts,
		BufferBytes: cs.BufferBytes, LocalFraction: cs.LocalFraction, Seed: cs.Seed,
	}, nil
}

// workingSet builds the service's configs: the Fig 12(a) Pond / BEACON /
// PIFS-Rec trio for every model (the fidelity gaps come from their
// responses), then configs that cycle through every scheme, model, trace
// kind, trace length and device count. The shape of the set is fixed so the
// work a run does is the same from seed to seed; the seed sets every
// config's engine seed (and the request sequence, in loop).
func workingSet(seed uint64, short bool) []serve.ConfigSpec {
	var out []serve.ConfigSpec
	for _, m := range dlrm.Models() {
		for _, s := range []engine.Scheme{engine.Pond, engine.BEACON, engine.PIFSRec} {
			out = append(out, serve.ConfigSpec{
				Scheme: string(s), Model: m.Name, Scale: 64, Trace: string(trace.MetaLike),
				Batches: 2, Seed: derive(seed, 100),
			})
		}
	}
	n := workingSetMore
	if short {
		n = 2
	}
	schemes, models, kinds := engine.Schemes(), dlrm.Models(), trace.Kinds()
	devices := []int{2, 4, 8}
	for i := 0; i < n; i++ {
		out = append(out, serve.ConfigSpec{
			Scheme:  string(schemes[i%len(schemes)]),
			Model:   models[i%len(models)].Name,
			Scale:   64,
			Trace:   string(kinds[(i/2)%len(kinds)]),
			Batches: 1 + i%2,
			Devices: devices[i%len(devices)],
			Seed:    derive(seed, 200+uint64(i)),
		})
	}
	return out
}

// prepareService builds the working set and its reference results: one
// direct engine.Run per config.
func prepareService(o options, rec *recorder) (instance, error) {
	s := &service{seed: o.seed, workdir: o.workdir, uniform: o.mix == "uniform", tableBags: map[string]int64{}}
	for _, cs := range workingSet(o.seed, o.short) {
		cfg, err := specConfig(cs)
		if err != nil {
			return nil, err
		}
		sp := rec.begin("engine.run.reference", nil, 0)
		res, err := engine.Run(cfg)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("reference run of %+v: %w", cs, err)
		}
		res.Sched = sim.SchedStats{} // the service strips it too
		ref, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		e := wsEntry{spec: cs, cfg: cfg, ref: ref, bags: len(cfg.Trace.Bags)}
		if len(s.ws) < 12 {
			e.fig12aModel = cs.Model
		}
		s.ws = append(s.ws, e)
	}
	for _, id := range serviceTables {
		s.tableBags[id] = tableBags(id)
	}
	return s, nil
}

// tableBags sums the bags every engine job behind a table simulates.
func tableBags(id string) int64 {
	var n int64
	for _, j := range harness.Jobs(id) {
		if j.Engine != nil {
			n += int64(len(j.Engine.Trace.Bags))
		}
	}
	return n
}

// start is the service's set-up: open a fresh disk store, start the
// handler on loopback, and warm it with every working-set config and table.
func (s *service) start(rec *recorder) error {
	s.tables = map[string][]byte{}
	s.fig12a = map[string]map[engine.Scheme]float64{}
	s.memoCounts = map[string][2]int64{}
	s.fresh, s.fails, s.loops, s.probes = 0, nil, 0, nil
	dir := filepath.Join(s.workdir, "service-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := memo.Open(dir)
	if err != nil {
		return err
	}
	probeDir := filepath.Join(s.workdir, "service-probe")
	if err := os.RemoveAll(probeDir); err != nil {
		return err
	}
	probe, err := memo.Open(probeDir)
	if err != nil {
		return err
	}
	s.store, s.probe = st, probe
	harness.SetStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: serve.Handler(serve.Options{})}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}

	for k := range s.ws {
		if _, err := s.simulate(k, nil, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for ti := range serviceTables {
		if _, err := s.run(ti, nil, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *service) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx) // a stuck connection is dropped by Close below
		cancel()
		_ = s.srv.Close()
		<-s.served
		s.srv = nil
		s.client.CloseIdleConnections()
	}
	harness.SetStore(nil)
	if s.store != nil {
		_ = os.RemoveAll(s.store.Dir())
		_ = os.RemoveAll(s.probe.Dir())
		s.store, s.probe = nil, nil
	}
}

// simulate posts working-set config k (or, with k < 0, a never-seen config
// derived from entry -k-1) and checks the response.
func (s *service) simulate(k int, rec *recorder, op int64) (sample, error) {
	fresh := k < 0
	key := max(k, -k-1)
	e := &s.ws[key]
	spec := e.spec
	if fresh {
		key += len(s.ws)
		s.mu.Lock()
		s.fresh++
		spec.Seed = derive(s.seed, 1<<40+s.fresh)
		s.mu.Unlock()
	}
	body, err := json.Marshal(map[string]any{"configs": []serve.ConfigSpec{spec}})
	if err != nil {
		return sample{key: key, failed: true}, err
	}
	sp := rec.begin("serve.simulate", nil, op)
	start := time.Now()
	resp, err := s.client.Post(s.base+"/v1/simulate", "application/json", bytes.NewReader(body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	smp := sample{key: key, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
	sp.end()
	if err != nil {
		smp.failed = true
		return smp, fmt.Errorf("simulate: %w", err)
	}
	res, err := decodeSimulate(resp.StatusCode, raw)
	if err != nil {
		smp.failed = true
		return smp, fmt.Errorf("simulate %+v: %w", spec, err)
	}
	if res.Bags != e.bags {
		smp.failed = true
		return smp, fmt.Errorf("simulate %+v: %d bags, trace has %d", spec, res.Bags, e.bags)
	}
	if !fresh {
		got, err := json.Marshal(res)
		if err != nil || !bytes.Equal(got, e.ref) {
			smp.failed = true
			return smp, fmt.Errorf("simulate %+v: result differs from the direct engine.Run", spec)
		}
	}
	smp.bags = int64(res.Bags)
	s.count("simulate", resp)
	if !fresh && e.fig12aModel != "" {
		s.mu.Lock()
		if s.fig12a[e.fig12aModel] == nil {
			s.fig12a[e.fig12aModel] = map[engine.Scheme]float64{}
		}
		s.fig12a[e.fig12aModel][engine.Scheme(spec.Scheme)] = res.NSPerBag
		s.mu.Unlock()
	}
	if rec != nil && !fresh {
		s.mu.Lock()
		s.probes = append(s.probes, memoProbe{op: op, k: key, res: res})
		s.mu.Unlock()
	}
	return smp, nil
}

func decodeSimulate(status int, raw []byte) (engine.Result, error) {
	if status != http.StatusOK {
		return engine.Result{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	var out struct {
		Results []struct {
			Result *engine.Result `json:"result"`
			Error  string         `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return engine.Result{}, fmt.Errorf("decoding response: %w", err)
	}
	if len(out.Results) != 1 || out.Results[0].Result == nil {
		return engine.Result{}, fmt.Errorf("response holds no result: %s", bytes.TrimSpace(raw))
	}
	return *out.Results[0].Result, nil
}

// memoProbe is one traced working-set op and the result it returned.
type memoProbe struct {
	op  int64
	k   int
	res engine.Result
}

// memoSpans times the memo steps a memoized lookup of this config would
// take — content hash, store write and store read of the encoded result —
// against a scratch store, so the service's own store and counters are
// untouched.
func (s *service) memoSpans(rec *recorder, op int64, e *wsEntry, res engine.Result) {
	cfg := e.cfg
	root := rec.begin("memo.lookup", nil, op)
	defer root.end()
	sp := rec.begin("memo.hash", root, op)
	h, err := harness.Job{Engine: &cfg}.Hash()
	sp.end()
	if err != nil {
		return
	}
	payload, err := harness.EncodeJobResult(harness.JobResult{Engine: res})
	if err != nil {
		return
	}
	sp = rec.begin("memo.put", root, op)
	_ = s.probe.Put(h, payload) // put failures are counted by the store
	sp.end()
	sp = rec.begin("memo.get", root, op)
	s.probe.Get(h)
	sp.end()
}

// run fetches table serviceTables[ti] and checks it against the set-up's
// first fetch.
func (s *service) run(ti int, rec *recorder, op int64) (sample, error) {
	id := serviceTables[ti]
	sp := rec.begin("serve.run", nil, op)
	start := time.Now()
	resp, err := s.client.Get(s.base + "/v1/run?id=" + id)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	smp := sample{key: 2*len(s.ws) + ti, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
	sp.end()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err == nil && len(raw) == 0 {
		err = fmt.Errorf("empty table")
	}
	if err != nil {
		smp.failed = true
		return smp, fmt.Errorf("run %s: %w", id, err)
	}
	s.mu.Lock()
	first, seen := s.tables[id]
	if !seen {
		s.tables[id] = raw
	}
	s.mu.Unlock()
	if seen && !bytes.Equal(first, raw) {
		smp.failed = true
		return smp, fmt.Errorf("run %s: table differs from the first fetch", id)
	}
	smp.bags = s.tableBags[id]
	s.count("run", resp)
	return smp, nil
}

// count accumulates the memo hit and miss deltas the handler reported.
func (s *service) count(kind string, resp *http.Response) {
	hits, _ := strconv.ParseInt(resp.Header.Get("X-Memo-Hits"), 10, 64)
	misses, _ := strconv.ParseInt(resp.Header.Get("X-Memo-Misses"), 10, 64)
	s.mu.Lock()
	c := s.memoCounts[kind]
	s.memoCounts[kind] = [2]int64{c[0] + hits, c[1] + misses}
	s.mu.Unlock()
}

// loop runs two closed-loop clients. Each sends a fixed cycle of ten
// requests: one /v1/run table fetch (the tables in turn), one never-seen
// config and eight skewed draws from the working set. A fixed mix keeps the
// bags a run delivers from swinging with how many table fetches the dice
// happened to pick.
func (s *service) loop(d time.Duration, rec *recorder) loopResult {
	s.loops++
	rngs := make([]*rand.Rand, serviceClients)
	zipfs := make([]*rand.Zipf, serviceClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewPCG(s.seed, s.loops<<8|uint64(c)))
		zipfs[c] = rand.NewZipf(rngs[c], zipfS, 1, uint64(len(s.ws)-1))
	}
	sent := make([]int, serviceClients)
	// Clients are numbered by the loop, and each uses only its own stream
	// and counter.
	lr := runClients(rec, serviceClients, d, nil, func(c int) (sample, error) {
		rng, i := rngs[c], sent[c]
		sent[c]++
		orec, op := rec.next()
		switch i % mixCycle {
		case mixRun:
			return s.run(i/mixCycle%len(serviceTables), orec, op)
		case mixNew:
			return s.simulate(-1-rng.IntN(len(s.ws)), orec, op)
		default:
			if s.uniform {
				return s.simulate(rng.IntN(len(s.ws)), orec, op)
			}
			return s.simulate(int(zipfs[c].Uint64())*rankStride%len(s.ws), orec, op)
		}
	})
	return lr
}

func (s *service) gaps() (float64, float64) { return fidelityGaps(s.fig12a) }

// layers runs, after the loop and its CPU profile, the memo spans of every
// traced working-set op, then replays every working-set config and table
// once, one request at a time, for the memo hit ratios: the
// X-Memo-Hits/Misses headers are deltas of global counters, which
// concurrent requests blur.
func (s *service) layers(rec *recorder, m metrics) {
	for _, p := range s.probes {
		s.memoSpans(rec, p.op, &s.ws[p.k], p.res)
	}
	s.memoCounts = map[string][2]int64{}
	for k := range s.ws {
		if _, err := s.simulate(k, nil, 0); err != nil {
			s.fails = append(s.fails, err.Error())
		}
	}
	for ti := range serviceTables {
		if _, err := s.run(ti, nil, 0); err != nil {
			s.fails = append(s.fails, err.Error())
		}
	}
	m.set("serve.simulate_ms", rec.medianMS("serve.simulate"), "ms")
	m.set("serve.run_ms", rec.medianMS("serve.run"), "ms")
	for _, kind := range []string{"simulate", "run"} {
		c := s.memoCounts[kind]
		m.set("memo.hit_ratio."+kind, ratio(float64(c[0]), float64(c[0]+c[1])), "ratio")
	}
	m.set("memo.hash_us", 1e3*rec.medianMS("memo.hash"), "us")
	m.set("memo.get_us", 1e3*rec.medianMS("memo.get"), "us")
	m.set("memo.put_us", 1e3*rec.medianMS("memo.put"), "us")
}

func (s *service) failures() []string {
	if len(s.fig12a) == 0 {
		return append(s.fails, "service: no Fig 12(a) results for the fidelity gaps")
	}
	return s.fails
}
