package pifs

import (
	"fmt"
	"testing"

	"pifsrec/internal/sim"
)

// completions records each finished cluster's dispatch time under the
// token it was configured with.
type completions map[int32]sim.Tick

// last returns the latest dispatch time recorded.
func (d completions) last() sim.Tick {
	var t sim.Tick
	for _, at := range d {
		if at > t {
			t = at
		}
	}
	return t
}

// newCore builds a core whose completion sink records into the returned
// completions; a token completing twice fails loudly.
func newCore(cfg Config) (*sim.Engine, *Core, completions) {
	eng := sim.NewEngine()
	c := New(eng, cfg)
	done := completions{}
	c.SetCompletionSink(func(tok int32, at sim.Tick) {
		if _, dup := done[tok]; dup {
			panic(fmt.Sprintf("token %d completed twice", tok))
		}
		done[tok] = at
	})
	return eng, c, done
}

// narrowConfig pins a single-lane 16 B/cycle datapath so cycle-exact
// assertions are independent of the default aggregate width.
func narrowConfig() Config {
	cfg := DefaultConfig()
	cfg.BytesPerCycle = 16
	cfg.Lanes = 1
	return cfg
}

func TestSingleClusterCompletes(t *testing.T) {
	eng, c, done := newCore(narrowConfig())
	key := ClusterKey{SPID: 1, SumTag: 3}
	c.Configure(key, 3, 64, 7)
	for i := 0; i < 3; i++ {
		c.Data(key)
	}
	eng.Run()
	// 3 vectors of 64 B at 16 B/cycle = 4 ns each, back to back.
	if doneAt, ok := done[7]; !ok || doneAt != 12 {
		t.Fatalf("completion at %d, want 12", doneAt)
	}
	st := c.Stats()
	if st.Completions != 1 || st.RowsFolded != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if c.ActiveClusters() != 0 {
		t.Fatal("cluster not retired")
	}
}

func TestRemainingCountsDown(t *testing.T) {
	eng, c, _ := newCore(DefaultConfig())
	key := ClusterKey{SPID: 1, SumTag: 1}
	c.Configure(key, 2, 64, 0)
	if c.Remaining(key) != 2 {
		t.Fatal("initial remaining wrong")
	}
	c.Data(key)
	if c.Remaining(key) != 1 {
		t.Fatal("remaining did not decrement")
	}
	c.Data(key)
	if c.Remaining(key) != -1 {
		t.Fatal("completed cluster still reported")
	}
	eng.Run()
}

func TestOoOFasterThanInOrderOnInterleavedTags(t *testing.T) {
	run := func(ooo bool) sim.Tick {
		cfg := narrowConfig()
		cfg.OoO = ooo
		eng, c, done := newCore(cfg)
		a := ClusterKey{SPID: 1, SumTag: 0}
		b := ClusterKey{SPID: 1, SumTag: 1}
		c.Configure(a, 8, 64, 0)
		c.Configure(b, 8, 64, 1)
		// Worst case: strictly alternating arrivals.
		for i := 0; i < 8; i++ {
			c.Data(a)
			c.Data(b)
		}
		eng.Run()
		if len(done) != 2 {
			t.Fatalf("%d of 2 clusters completed", len(done))
		}
		return done.last()
	}
	inOrder := run(false)
	ooo := run(true)
	if ooo >= inOrder {
		t.Fatalf("OoO (%d ns) not faster than in-order (%d ns)", ooo, inOrder)
	}
}

func TestInOrderStallsCounted(t *testing.T) {
	cfg := narrowConfig()
	cfg.OoO = false
	eng, c, _ := newCore(cfg)
	a := ClusterKey{SumTag: 0}
	b := ClusterKey{SumTag: 1}
	c.Configure(a, 2, 64, 0)
	c.Configure(b, 2, 64, 1)
	c.Data(a)
	c.Data(b) // switch 1
	c.Data(a) // switch 2; completes a, freeing the register
	c.Data(b) // register free after completion: no switch charged
	eng.Run()
	st := c.Stats()
	if st.TagSwitches != 2 || st.InOrderStalls != 2 {
		t.Fatalf("stats = %+v, want 2 switches and 2 stalls", st)
	}
}

func TestSwapSpillBeyondRegisters(t *testing.T) {
	cfg := narrowConfig()
	cfg.SwapRegisters = 2
	eng, c, done := newCore(cfg)
	keys := make([]ClusterKey, 4)
	for i := range keys {
		keys[i] = ClusterKey{SumTag: uint8(i)}
		c.Configure(keys[i], 4, 64, int32(i))
	}
	// Round-robin across 4 clusters with only 2 swap registers.
	for round := 0; round < 4; round++ {
		for _, k := range keys {
			c.Data(k)
		}
	}
	eng.Run()
	st := c.Stats()
	if st.SwapSpills == 0 {
		t.Fatal("no swap spills with more clusters than registers")
	}
	if st.Completions != 4 || len(done) != 4 {
		t.Fatalf("completions = %d (%d delivered), want 4", st.Completions, len(done))
	}
}

func TestACRBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ACRCapacity = 2
	eng, c, done := newCore(cfg)
	for i := 0; i < 5; i++ {
		key := ClusterKey{SumTag: uint8(i)}
		c.Configure(key, 1, 64, int32(i))
	}
	if c.ActiveClusters() != 2 || c.PendingConfigures() != 3 {
		t.Fatalf("active=%d pending=%d, want 2/3", c.ActiveClusters(), c.PendingConfigures())
	}
	if c.Stats().Backpressured != 3 {
		t.Fatalf("backpressured = %d, want 3", c.Stats().Backpressured)
	}
	// Drain: complete active clusters; queued ones must admit FIFO.
	for i := 0; i < 5; i++ {
		// Only active clusters can receive data.
		for tag := 0; tag < 5; tag++ {
			key := ClusterKey{SumTag: uint8(tag)}
			if c.Remaining(key) > 0 {
				c.Data(key)
			}
		}
		eng.Run()
	}
	if len(done) != 5 {
		t.Fatalf("completions = %d, want 5", len(done))
	}
}

func TestLargerVectorsCostMoreCycles(t *testing.T) {
	eng, c, d64 := newCore(narrowConfig())
	k64 := ClusterKey{SumTag: 0}
	c.Configure(k64, 1, 64, 0)
	c.Data(k64)
	eng.Run()

	eng2, c2, d256 := newCore(narrowConfig())
	k256 := ClusterKey{SumTag: 0}
	c2.Configure(k256, 1, 256, 0)
	c2.Data(k256)
	eng2.Run()

	done64, done256 := d64[0], d256[0]
	if done64 != 4 || done256 != 16 {
		t.Fatalf("64B=%d ns 256B=%d ns, want 4/16", done64, done256)
	}
}

func TestAddCandidates(t *testing.T) {
	eng, c, done := newCore(DefaultConfig())
	key := ClusterKey{SumTag: 7}
	c.Configure(key, 1, 64, 0)
	c.AddCandidates(key, 2)
	c.Data(key)
	c.Data(key)
	eng.Run()
	if len(done) != 0 {
		t.Fatal("completed before all candidates arrived")
	}
	c.Data(key)
	eng.Run()
	if len(done) != 1 {
		t.Fatal("never completed after AddCandidates")
	}
}

func TestMultiHostClustersDoNotCollide(t *testing.T) {
	eng, c, done := newCore(DefaultConfig())
	// Same sumtag from two hosts must be independent clusters.
	h1 := ClusterKey{SPID: 1, SumTag: 5}
	h2 := ClusterKey{SPID: 2, SumTag: 5}
	c.Configure(h1, 1, 64, 1)
	c.Configure(h2, 2, 64, 2)
	c.Data(h1)
	eng.Run()
	_, d1 := done[1]
	_, d2 := done[2]
	if !d1 || d2 {
		t.Fatalf("cluster isolation broken: d1=%v d2=%v", d1, d2)
	}
	c.Data(h2)
	c.Data(h2)
	eng.Run()
	if _, d2 = done[2]; !d2 {
		t.Fatal("second host's cluster never completed")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	cases := []func(*Core){
		func(c *Core) { c.Configure(ClusterKey{}, 0, 64, 0) },
		func(c *Core) { c.Configure(ClusterKey{}, 1, 15, 0) },
		func(*Core) { New(sim.NewEngine(), DefaultConfig()).Configure(ClusterKey{}, 1, 64, 0) }, // no sink
		func(c *Core) { c.Data(ClusterKey{SumTag: 9}) },
		func(c *Core) {
			c.Configure(ClusterKey{}, 1, 64, 0)
			c.Configure(ClusterKey{}, 1, 64, 1)
		},
		func(c *Core) { c.AddCandidates(ClusterKey{SumTag: 3}, 1) },
	}
	for i, f := range cases {
		_, c, _ := newCore(DefaultConfig())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: misuse did not panic", i)
				}
			}()
			f(c)
		}()
	}
}

func TestThroughputSaturatesDatapath(t *testing.T) {
	// 1000 64 B vectors at 16 B/cycle, 1 ns clock: exactly 4000 ns busy
	// when all belong to one cluster (no switches).
	eng, c, done := newCore(narrowConfig())
	key := ClusterKey{SumTag: 1}
	c.Configure(key, 1000, 64, 0)
	for i := 0; i < 1000; i++ {
		c.Data(key)
	}
	eng.Run()
	if at, ok := done[0]; !ok || at != 4000 {
		t.Fatalf("1000 vectors done at %d ns (delivered %v), want 4000", at, ok)
	}
}
