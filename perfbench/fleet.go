package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/serve"
)

// fleetTables are the single-phase experiment tables the fleet client
// fetches; every job behind them is an engine job the worker holds warm.
var fleetTables = []string{"fig12a", "fig12d", "fig12e", "fig13b", "fig13d", "fig15"}

// fleetTable is one table with its reference bytes and jobs.
type fleetTable struct {
	id   string
	ref  []byte // local harness.RunTable output, no store, no distributor
	jobs []harness.Job
	bags int64
}

type fleet struct {
	seed   uint64
	tables []fleetTable

	coord      *serve.Coordinator
	prevDist   harness.Distributor
	srv        *http.Server
	served     chan error
	stopWorker context.CancelFunc
	workerDone chan error
	base       string
	client     *http.Client
	// payloads are the warm results by job hash, for the traced run's frame
	// spans.
	payloads map[memo.Hash][]byte
	fig12a   map[string]map[engine.Scheme]float64
	loops    uint64

	stats0, stats1 serve.DistStats // coordinator counters around traced loops
	probes         []wireProbe     // traced ops, for layers
	fails          []string
}

// prepareFleet computes each table's reference bytes with a plain local
// sweep (no result store, no job board).
func prepareFleet(o options, _ *recorder) (instance, error) {
	f := &fleet{seed: o.seed}
	ids := fleetTables
	if o.short {
		ids = []string{"fig12a", "fig13b"}
	}
	prevStore := harness.SetStore(nil)
	prevDist := harness.SetDistributor(nil)
	defer harness.SetStore(prevStore)
	defer harness.SetDistributor(prevDist)
	for _, id := range ids {
		t, err := harness.RunTable(id)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		t.Fprint(&buf)
		ft := fleetTable{id: id, ref: buf.Bytes(), jobs: harness.Jobs(id)}
		for _, j := range ft.jobs {
			if j.Engine == nil {
				return nil, fmt.Errorf("%s has a non-engine job", id)
			}
			ft.bags += int64(len(j.Engine.Trace.Bags))
		}
		f.tables = append(f.tables, ft)
	}
	return f, nil
}

// start is the fleet's set-up: warm a worker cache with every job, then
// start a coordinator on loopback and one pull worker against it.
func (f *fleet) start(rec *recorder) error {
	f.payloads = map[memo.Hash][]byte{}
	f.fig12a = map[string]map[engine.Scheme]float64{}
	f.fails, f.loops, f.probes = nil, 0, nil
	f.stats0, f.stats1 = serve.DistStats{}, serve.DistStats{}
	cache := memo.InMemory()
	runner := harness.NewRunner(0)
	for _, t := range f.tables {
		results := runner.RunJobsLocal(cache, t.jobs)
		for i, j := range t.jobs {
			h, err := j.Hash()
			if err != nil {
				return err
			}
			payload, err := harness.EncodeJobResult(results[i])
			if err != nil {
				return err
			}
			f.payloads[h] = payload
		}
	}

	f.coord = serve.NewCoordinator(serve.CoordinatorConfig{})
	f.prevDist = f.coord.Install()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: serve.Handler(serve.Options{Coordinator: f.coord})}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	f.client = &http.Client{}

	ctx, cancel := context.WithCancel(context.Background())
	f.stopWorker = cancel
	f.workerDone = make(chan error, 1)
	go func() {
		f.workerDone <- serve.RunWorker(ctx, serve.WorkerConfig{
			Coordinator: f.base, ID: "perfbench-worker", Store: cache,
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Stats().LiveWorkers == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("worker never polled the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (f *fleet) close() {
	if f.stopWorker != nil {
		f.stopWorker()
		<-f.workerDone
		f.stopWorker = nil
	}
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = f.srv.Shutdown(ctx) // a stuck connection is dropped by Close below
		cancel()
		_ = f.srv.Close()
		<-f.served
		f.srv = nil
		f.client.CloseIdleConnections()
	}
	if f.coord != nil {
		harness.SetDistributor(f.prevDist)
		f.coord = nil
	}
	harness.SetStore(nil)
}

// loop fetches the tables one at a time in seeded rounds — every table once
// per round, in a shuffled order, so each run weighs the tables alike.
// Before each fetch the
// coordinator gets a fresh, empty result store — a coordinator restart in
// front of a warm fleet — so every job goes through the job board.
func (f *fleet) loop(d time.Duration, rec *recorder) loopResult {
	f.loops++
	rng := rand.New(rand.NewPCG(f.seed, f.loops))
	if rec != nil && f.stats0 == (serve.DistStats{}) {
		f.stats0 = f.coord.Stats()
	}
	var round []int
	lr := runClients(rec, 1, d, wholeRounds(d, len(f.tables)), func(int) (sample, error) {
		if len(round) == 0 {
			round = rng.Perm(len(f.tables))
		}
		ti := round[0]
		round = round[1:]
		t := &f.tables[ti]
		orec, op := rec.next()
		st := memo.InMemory()
		harness.SetStore(st)
		sp := orec.begin("fleet.table", nil, op)
		start := time.Now()
		raw, err := f.get(t.id)
		smp := sample{key: ti, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
		sp.end()
		if err == nil && !bytes.Equal(raw, t.ref) {
			err = errors.New("table differs from the local reference")
		}
		if err != nil {
			smp.failed = true
			return smp, fmt.Errorf("run %s: %w", t.id, err)
		}
		smp.bags = t.bags
		if t.id == "fig12a" && len(f.fig12a) == 0 {
			if err := f.readFig12a(t, st); err != nil {
				smp.failed = true
				return smp, err
			}
		}
		if orec != nil {
			f.probes = append(f.probes, wireProbe{op: op, t: ti})
		}
		return smp, nil
	})
	if rec != nil {
		f.stats1 = f.coord.Stats()
	}
	return lr
}

// readFig12a takes the Fig 12(a) ns/bag the fidelity gaps use from the
// results the fleet delivered: the coordinator stores every job result it
// collects for a table in its result store.
func (f *fleet) readFig12a(t *fleetTable, st *memo.Store) error {
	for _, j := range t.jobs {
		h, err := j.Hash()
		if err != nil {
			return err
		}
		payload, ok := st.Get(h)
		if !ok {
			return fmt.Errorf("fig12a: coordinator store holds no result for a job")
		}
		res, err := harness.DecodeJobResult(payload)
		if err != nil {
			return fmt.Errorf("fig12a: %w", err)
		}
		m := j.Engine.Model.Name
		if f.fig12a[m] == nil {
			f.fig12a[m] = map[engine.Scheme]float64{}
		}
		f.fig12a[m][j.Engine.Scheme] = res.Engine.NSPerBag
	}
	return nil
}

func (f *fleet) get(id string) ([]byte, error) {
	resp, err := f.client.Get(f.base + "/v1/run?id=" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// wireProbe is one traced op: the table it fetched.
type wireProbe struct {
	op int64
	t  int
}

// wireSpans times the encodings a table's jobs cross between coordinator
// and worker: the job wire both ways and the CRC result frame both ways.
func (f *fleet) wireSpans(rec *recorder, op int64, t *fleetTable) {
	root := rec.begin("fleet.wire", nil, op)
	defer root.end()
	for _, j := range t.jobs {
		sp := rec.begin("harness.encode_job", root, op)
		wire, err := harness.EncodeJob(j)
		sp.end()
		if err != nil {
			continue
		}
		sp = rec.begin("harness.decode_job", root, op)
		dj, err := harness.DecodeJob(wire)
		sp.end()
		if err != nil {
			continue
		}
		h, err := dj.Hash()
		if err != nil {
			continue
		}
		sp = rec.begin("memo.frame", root, op)
		_, ok := memo.DecodeFrame(memo.EncodeFrame(h, f.payloads[h]), h)
		sp.end()
		if !ok {
			f.fails = append(f.fails, fmt.Sprintf("%s: result frame did not round-trip", t.id))
		}
	}
}

func (f *fleet) gaps() (float64, float64) { return fidelityGaps(f.fig12a) }

// layers runs the wire spans of every traced op after the loop and its CPU
// profile, then reports the fleet path's metrics.
func (f *fleet) layers(rec *recorder, m metrics) {
	for _, p := range f.probes {
		f.wireSpans(rec, p.op, &f.tables[p.t])
	}
	published := float64(f.stats1.Published - f.stats0.Published)
	m.set("fleet.local_share", ratio(float64(f.stats1.LocalRuns-f.stats0.LocalRuns), published), "ratio")
	m.set("fleet.remote_cache_hit_ratio", ratio(float64(f.stats1.RemoteCacheHits-f.stats0.RemoteCacheHits),
		float64(f.stats1.RemoteCompleted-f.stats0.RemoteCompleted)), "ratio")
	m.set("fleet.reissued", float64(f.stats1.Reissued-f.stats0.Reissued), "count")
	var tableMS float64
	for _, v := range rec.durations("fleet.table") {
		tableMS += v
	}
	m.set("fleet.ms_per_job", ratio(tableMS, published), "ms")
	m.set("harness.encode_job_us", 1e3*rec.medianMS("harness.encode_job"), "us")
	m.set("harness.decode_job_us", 1e3*rec.medianMS("harness.decode_job"), "us")
	m.set("memo.frame_us", 1e3*rec.medianMS("memo.frame"), "us")
}

func (f *fleet) failures() []string {
	if len(f.fig12a) == 0 {
		return append(f.fails, "fleet: no Fig 12(a) results for the fidelity gaps")
	}
	return f.fails
}
