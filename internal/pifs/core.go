// Package pifs implements the Process Core (PC) of PIFS-Rec (§IV-A): the
// in-switch compute block that decodes host DataFetch/Configuration
// instructions, tracks accumulation clusters in the Accumulate Configuration
// Register (ACR), folds returning row vectors into partial sums with an
// out-of-order engine backed by swap registers (§IV-A5), applies
// back-pressure when the ACR capacity counter saturates, and emits the
// completed sum toward the host via CXL.cache D2H.
package pifs

import (
	"fmt"

	"pifsrec/internal/sim"
)

// Config parameterizes a Process Core.
type Config struct {
	// OoO enables the out-of-order accumulation engine; disabled, the core
	// pays a pipeline flush whenever consecutive row vectors belong to
	// different accumulation clusters.
	OoO bool
	// SwapRegisters is the shared swap-register pool depth for OoO context
	// switches; contexts beyond it spill to on-switch SRAM (2 cycles).
	SwapRegisters int
	// ACRCapacity is the CapacityCounter limit: the number of concurrent
	// accumulation clusters before back-pressure (§IV-A3).
	ACRCapacity int
	// BytesPerCycle is the aggregate accumulate datapath width (default
	// 256 B/cycle: the compute logic must sustain the downstream ports'
	// line rate — BEACON achieves it with parallel NDP units, PIFS-Rec with
	// a wide pipelined unit; 256 B at 1 GHz matches four 64 GB/s ports).
	BytesPerCycle int
	// ClockNS is the core clock period; the paper's top module ticks at
	// 1 ns/clk (§VI-A).
	ClockNS sim.Tick
	// Lanes is the number of parallel accumulate pipelines. Fig 7 shows
	// "multiple processing cores and accumulation logic" sharing one swap
	// region; arriving vectors dispatch to the least-loaded lane.
	Lanes int
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config {
	return Config{OoO: true, SwapRegisters: 64, ACRCapacity: 256, BytesPerCycle: 256, ClockNS: 1, Lanes: 4}
}

// flushCycles is the pipeline depth drained on an in-order tag switch.
const flushCycles = 2

func (c *Config) fillDefaults() {
	if c.SwapRegisters == 0 {
		c.SwapRegisters = 64
	}
	if c.ACRCapacity == 0 {
		c.ACRCapacity = 256
	}
	if c.BytesPerCycle == 0 {
		c.BytesPerCycle = 256
	}
	if c.ClockNS == 0 {
		c.ClockNS = 1
	}
	if c.Lanes == 0 {
		c.Lanes = 4
	}
}

// ClusterKey identifies an accumulation cluster: the issuing port plus the
// 6-bit sumtag, so concurrent hosts cannot collide (§IV-C1 multi-host).
type ClusterKey struct {
	SPID   uint16
	SumTag uint8
}

// Stats counts core activity.
type Stats struct {
	Configured    int64 // clusters programmed into the ACR
	Completions   int64 // clusters finished and dispatched
	RowsFolded    int64 // row vectors accumulated
	TagSwitches   int64 // consecutive rows from different clusters
	SwapSpills    int64 // OoO context switches that overflowed to SRAM
	InOrderStalls int64 // pipeline flushes in the in-order configuration
	Backpressured int64 // Configure calls that had to wait for ACR space
}

// cluster is one ACR entry. Entries live in a pooled arena referenced by
// index; a slot stays allocated until its completion event fires, then
// recycles — steady-state cluster turnover allocates nothing.
type cluster struct {
	key       ClusterKey
	remaining int
	vecBytes  int
	// tok is delivered to the installed completion sink when the cluster
	// finishes (the switch's pooled result record).
	tok       int32
	inSwapReg bool
}

// Core is the Process Core. Like the rest of the simulator it is
// single-goroutine: all methods run on the simulation loop.
type Core struct {
	eng *sim.Engine
	cfg Config

	active map[ClusterKey]int32
	// waiting holds Configure requests beyond ACRCapacity (back-pressure on
	// the upstream modules, §IV-A3); head compaction keeps it allocation-free.
	waiting     []int32
	waitingHead int

	// clusters is the pooled ACR arena with its free list.
	clusters []cluster
	freeCl   []int32

	// sink receives cluster completions; fireFn is the one stored func value
	// the completion events dispatch through.
	sink   func(tok int32, at sim.Tick)
	fireFn func(int32)

	// lanes are the parallel accumulate pipelines; each tracks its own
	// occupancy and loaded cluster. The swap-register pool is shared.
	lanes []lane
	// swapUsed counts clusters parked in swap registers.
	swapUsed int

	stats Stats
}

type lane struct {
	busyUntil sim.Tick
	loaded    ClusterKey
	hasLoaded bool
}

// New builds a Process Core.
func New(eng *sim.Engine, cfg Config) *Core {
	cfg.fillDefaults()
	if cfg.ACRCapacity <= 0 || cfg.SwapRegisters < 0 || cfg.BytesPerCycle <= 0 ||
		cfg.ClockNS <= 0 || cfg.Lanes <= 0 {
		panic(fmt.Sprintf("pifs: invalid config %+v", cfg))
	}
	c := &Core{eng: eng, cfg: cfg, active: make(map[ClusterKey]int32),
		lanes: make([]lane, cfg.Lanes)}
	c.fireFn = c.fireCompletion
	return c
}

// SetCompletionSink installs the receiver of cluster completions: each
// finished cluster is delivered as fn(tok, at) with the token it was
// configured with. The switch installs one function at wiring time;
// per-cluster state rides in the token.
func (c *Core) SetCompletionSink(fn func(tok int32, at sim.Tick)) { c.sink = fn }

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats { return c.stats }

// ActiveClusters returns the number of ACR entries in use.
func (c *Core) ActiveClusters() int { return len(c.active) }

// PendingConfigures returns the depth of the back-pressure queue.
func (c *Core) PendingConfigures() int { return len(c.waiting) - c.waitingHead }

// allocCluster returns a recycled (or freshly grown) arena slot.
func (c *Core) allocCluster() int32 {
	if n := len(c.freeCl); n > 0 {
		id := c.freeCl[n-1]
		c.freeCl = c.freeCl[:n-1]
		return id
	}
	c.clusters = append(c.clusters, cluster{})
	return int32(len(c.clusters) - 1)
}

// Configure programs a new accumulation cluster: candidates row vectors of
// vecBytes each will arrive for key; when the SumCandidateCounter reaches
// zero, the completion sink receives (tok, dispatch time). If the ACR is
// full the request queues (back-pressure) and is admitted in FIFO order as
// clusters complete. A completion sink must be installed.
func (c *Core) Configure(key ClusterKey, candidates, vecBytes int, tok int32) {
	if c.sink == nil {
		panic("pifs: Configure without a completion sink")
	}
	if candidates <= 0 {
		panic(fmt.Sprintf("pifs: cluster %v with %d candidates", key, candidates))
	}
	if vecBytes <= 0 || vecBytes%16 != 0 {
		panic(fmt.Sprintf("pifs: vector size %d not a positive multiple of 16", vecBytes))
	}
	if _, dup := c.active[key]; dup {
		panic(fmt.Sprintf("pifs: cluster %v already active", key))
	}
	id := c.allocCluster()
	cl := &c.clusters[id]
	cl.key = key
	cl.remaining = candidates
	cl.vecBytes = vecBytes
	cl.tok = tok
	cl.inSwapReg = false
	if len(c.active) >= c.cfg.ACRCapacity {
		c.stats.Backpressured++
		c.waiting = append(c.waiting, id)
		return
	}
	c.admit(id)
}

func (c *Core) admit(id int32) {
	c.active[c.clusters[id].key] = id
	c.stats.Configured++
}

// procNS returns the accumulate datapath time for one row vector.
func (c *Core) procNS(vecBytes int) sim.Tick {
	cycles := (vecBytes + c.cfg.BytesPerCycle - 1) / c.cfg.BytesPerCycle
	return sim.Tick(cycles) * c.cfg.ClockNS
}

// Data folds one arriving row vector into its cluster and returns the time
// the accumulate completes. The caller (the switch's ingress path) invokes
// this when device data reaches the core; the IIR match that recovers the
// cluster from the data's address happens in the switch model. The vector
// dispatches to the earliest-free lane, preferring a lane that already has
// the cluster loaded.
func (c *Core) Data(key ClusterKey) sim.Tick {
	id, ok := c.active[key]
	if !ok {
		panic(fmt.Sprintf("pifs: data for unknown cluster %v", key))
	}
	cl := &c.clusters[id]
	now := c.eng.Now()

	// Lane choice: a lane already holding this cluster wins if it is no
	// later than the earliest-free lane (affinity avoids pointless swaps).
	best := 0
	for i := range c.lanes {
		if c.lanes[i].busyUntil < c.lanes[best].busyUntil {
			best = i
		}
	}
	for i := range c.lanes {
		if c.lanes[i].hasLoaded && c.lanes[i].loaded == key &&
			c.lanes[i].busyUntil <= c.lanes[best].busyUntil {
			best = i
			break
		}
	}
	ln := &c.lanes[best]

	start := now
	if ln.busyUntil > start {
		start = ln.busyUntil
	}

	// Context switch cost when the arriving vector belongs to a different
	// cluster than the one in the lane's accumulate register.
	if ln.hasLoaded && ln.loaded != key {
		c.stats.TagSwitches++
		switch {
		case !c.cfg.OoO:
			// In-order engine: drain/flush the pipeline before switching —
			// the stall the OoO design eliminates (§IV-A5).
			c.stats.InOrderStalls++
			start += sim.Tick(flushCycles) * c.cfg.ClockNS
		case cl.inSwapReg || c.swapUsed < c.cfg.SwapRegisters:
			// "The system transfers the accumulated intermediate result from
			// the accumulation register to a swap register during the first
			// half of the clock cycle, allowing for processing of the new
			// data in the subsequent half" (§IV-A5): the swap hides inside
			// the processing cycle, costing no additional time.
			if !cl.inSwapReg {
				cl.inSwapReg = true
				c.swapUsed++
			}
		default:
			// Swap pool exhausted: the intermediate result spills to the
			// switch SRAM. The access takes at least two clocks (§IV-A5),
			// pipelined so one clock of datapath occupancy is exposed.
			c.stats.SwapSpills++
			start += c.cfg.ClockNS
		}
	}
	ln.loaded = key
	ln.hasLoaded = true

	done := start + c.procNS(cl.vecBytes)
	ln.busyUntil = done
	c.stats.RowsFolded++

	cl.remaining--
	if cl.remaining == 0 {
		c.complete(id, done)
	}
	return done
}

// Remaining returns the outstanding candidate count for a cluster, or -1
// when the cluster is unknown (already completed).
func (c *Core) Remaining(key ClusterKey) int {
	if id, ok := c.active[key]; ok {
		return c.clusters[id].remaining
	}
	return -1
}

// AddCandidates grows a cluster's expected count; the multi-switch forward
// controller uses this when Sub-SumCandidateCounts replace the original
// count (§IV-C1).
func (c *Core) AddCandidates(key ClusterKey, n int) {
	id, ok := c.active[key]
	if !ok {
		panic(fmt.Sprintf("pifs: AddCandidates for unknown cluster %v", key))
	}
	if n <= 0 {
		panic(fmt.Sprintf("pifs: AddCandidates(%d)", n))
	}
	c.clusters[id].remaining += n
}

func (c *Core) complete(id int32, at sim.Tick) {
	cl := &c.clusters[id]
	delete(c.active, cl.key)
	if cl.inSwapReg {
		c.swapUsed--
	}
	for i := range c.lanes {
		if c.lanes[i].hasLoaded && c.lanes[i].loaded == cl.key {
			c.lanes[i].hasLoaded = false
		}
	}
	c.stats.Completions++
	// The arena slot stays allocated until the completion event fires; the
	// event is a token call, so completing a cluster never allocates.
	c.eng.AtCall(at, c.fireFn, id)

	// Admit a waiting cluster now that ACR space freed.
	if c.waitingHead < len(c.waiting) && len(c.active) < c.cfg.ACRCapacity {
		next := c.waiting[c.waitingHead]
		c.waitingHead++
		if c.waitingHead == len(c.waiting) {
			c.waiting = c.waiting[:0]
			c.waitingHead = 0
		}
		c.admit(next)
	}
}

// fireCompletion delivers a completed cluster's result at its dispatch time
// and recycles the arena slot.
func (c *Core) fireCompletion(id int32) {
	tok := c.clusters[id].tok
	c.freeCl = append(c.freeCl, id)
	c.sink(tok, c.eng.Now())
}
