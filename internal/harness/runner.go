package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pifsrec/internal/engine"
	"pifsrec/internal/sim"
)

// Runner fans independent simulation jobs across a bounded worker pool.
// Every simulation owns a private sim.Engine, tier.Manager, and model state,
// so FigNN sweeps are shared-nothing: the pool parallelizes across
// configurations, never within one. Results are always delivered in
// submission order, so a sweep's output is byte-identical whether it ran on
// one worker or many.
type Runner struct {
	workers int
}

// NewRunner builds a pool of the given width; workers <= 0 selects
// GOMAXPROCS. A width of 1 degenerates to inline serial execution (no
// goroutines), which the determinism tests use as the reference.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// Workers returns the pool width.
func (r *Runner) Workers() int { return r.workers }

// Do executes fn(i) for every i in [0, n) across the pool and blocks until
// all complete. Jobs are claimed from a shared counter, so scheduling order
// is nondeterministic but callers index their own result slots. A panic in
// any job is re-raised on the caller after the pool drains.
func (r *Runner) Do(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ShardsPerConfig splits the pool's cores between sweep-level and intra-sim
// parallelism: with fewer configurations than workers, the spare cores run
// each simulation on that many engine shards (conservative-time-window
// sharding); with a saturated sweep, shards stay at 1 and the pool
// parallelizes across configurations only. groups is the configuration's
// component-group count (engine.Config.ComponentGroups) and bounds the
// result — shards beyond the group count buy nothing; a group count below
// one is a configuration bug and panics rather than being silently
// clamped. Because simulation results are byte-identical at every shard
// count and placement, the split is a pure scheduling decision — tables
// never depend on it.
func (r *Runner) ShardsPerConfig(n, groups int) int {
	if groups < 1 {
		panic(fmt.Sprintf("harness: configuration with %d component groups (need >= 1)", groups))
	}
	if n <= 0 {
		return 1
	}
	concurrent := r.workers
	if concurrent > n {
		concurrent = n
	}
	shards := r.workers / concurrent
	if shards < 1 {
		shards = 1
	}
	if shards > groups {
		shards = groups
	}
	return shards
}

// RunConfigs simulates every config and returns the results in input order,
// panicking on configuration errors exactly like the serial run helper.
// Configs that leave Shards at zero inherit the pool's core split, bounded
// by their own component-group count; an explicit Shards value is honored
// as-is (the engine documents its clamp).
func (r *Runner) RunConfigs(cfgs []engine.Config) []engine.Result {
	jobs := make([]Job, len(cfgs))
	for i := range cfgs {
		jobs[i] = engineJob(cfgs[i])
	}
	results := r.RunJobs(jobs)
	out := make([]engine.Result, len(results))
	for i := range results {
		out[i] = results[i].Engine
	}
	return out
}

// RunConfigsIsolated is RunConfigs with per-configuration blast-radius
// containment: a configuration that errors — or panics anywhere inside its
// simulation — produces an error in its slot instead of killing the whole
// sweep. Results and errors are parallel to cfgs; exactly one of
// (results[i] valid, errs[i] != nil) holds per slot. Unlike RunConfigs,
// which goes through the memoized RunJobs, it calls engine.Run directly and
// consults no result store: every configuration simulates, repeats
// included.
func (r *Runner) RunConfigsIsolated(cfgs []engine.Config) ([]engine.Result, []error) {
	results := make([]engine.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	r.Do(len(cfgs), func(i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("harness: config %d (%s) panicked: %v", i, cfgs[i].Scheme, p)
			}
		}()
		cfg := cfgs[i]
		if cfg.Shards == 0 {
			cfg.Shards = r.ShardsPerConfig(len(cfgs), cfg.ComponentGroups())
		}
		res, err := engine.Run(cfg)
		if err != nil {
			errs[i] = err
			return
		}
		// Strip the scheduling-quality report like the memoized path does:
		// the core split varies with pool width, and sweep answers must not.
		res.Sched = sim.SchedStats{}
		results[i] = res
	})
	return results, errs
}

// mapIndexed runs fn across the pool and collects results by index.
func mapIndexed[T any](r *Runner, n int, fn func(int) T) []T {
	out := make([]T, n)
	r.Do(n, func(i int) { out[i] = fn(i) })
	return out
}

// pool is the package's default runner, used by every experiment sweep.
// SetParallelism replaces it; the default is one worker per CPU.
var pool = NewRunner(0)

// DefaultRunner returns the package's current default pool (the one behind
// Experiments/Run/RunAll). The serve mode uses it to answer raw config
// sweeps through the same memoized path as the named experiments.
func DefaultRunner() *Runner { return pool }

// SetParallelism resizes the default pool used by the figure sweeps;
// n <= 0 restores the GOMAXPROCS default. It returns the previous width.
// Figures produce byte-identical tables at any width — this exists for
// benchmarking the sweep speedup and for pinning the serial reference in
// tests.
func SetParallelism(n int) int {
	prev := pool.workers
	pool = NewRunner(n)
	return prev
}
