package sim

import (
	"fmt"
	"testing"
)

// fakeNet wires a ShardedEngine whose deliver override records delivery
// order. Each of the `groups` placement groups gets weight 1.
type fakeNet struct {
	se    *ShardedEngine
	order []Envelope
}

func newFakeNet(workers, groups int, window Tick) *fakeNet {
	f := &fakeNet{se: NewSharded(workers, window)}
	for g := 0; g < groups; g++ {
		f.se.NewGroup(1)
	}
	f.se.SetDeliver(func(env Envelope) {
		// Copy the addrs (the slot's buffer is recycled after return).
		cp := env
		cp.Addrs = append([]uint64(nil), env.Addrs...)
		f.order = append(f.order, cp)
	})
	return f
}

// TestMailboxDeliveryOrder posts messages from several groups with
// deliberately shuffled (time, port) combinations and requires delivery in
// (At, Port, Seq) order — the placement-independent merge key.
func TestMailboxDeliveryOrder(t *testing.T) {
	f := newFakeNet(3, 3, 50)
	se := f.se
	// One port per sending component (the ownership contract): pa, pb on
	// group 0; pc on group 1; pd on group 2.
	pa := se.NewPort()
	pb := se.NewPort()
	pc := se.NewPort()
	pd := se.NewPort()

	// A driver event in each group posts during the first window.
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(pa, 1, 1, 80, Payload{U0: 1}, []uint64{7, 8})
		se.Outbox(0).Post(pb, 1, 1, 80, Payload{U0: 2}, nil)
	})
	se.Group(1).At(0, func() {
		se.Outbox(1).Post(pc, 1, 1, 80, Payload{U0: 3}, nil)
		se.Outbox(1).Post(pc, 1, 1, 90, Payload{U0: 4}, nil)
	})
	se.Group(2).At(0, func() {
		se.Outbox(2).Post(pd, 1, 1, 70, Payload{U0: 5}, nil)
	})
	se.Run()

	want := []int32{5, 1, 2, 3, 4} // (70,pd) (80,pa) (80,pb) (80,pc) (90,pc)
	if len(f.order) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(f.order), len(want))
	}
	for i, env := range f.order {
		if env.P.U0 != want[i] {
			t.Errorf("delivery %d = U0 %d, want %d", i, env.P.U0, want[i])
		}
	}
	if got := f.order[1].Addrs; len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Errorf("addrs span corrupted: %v", got)
	}
	if se.PendingMessages() != 0 {
		t.Errorf("%d messages leaked", se.PendingMessages())
	}
}

// pingWorkload runs four message-bouncing endpoints (one group each, with
// uneven weights) on a worker count, with barrier elision on or off, and
// returns the per-endpoint delivery logs plus the engine (for its SchedStats
// and per-group engines). Used by the placement tests.
type pingRecord struct {
	at  Tick
	ep  int32
	u   int32
	cnt int32
}

func pingWorkload(workers int, elide bool) ([][]pingRecord, *ShardedEngine) {
	const eps = 4
	se := NewSharded(workers, 50)
	log := make([][]pingRecord, eps)
	ports := make([]int32, eps)
	for e := 0; e < eps; e++ {
		se.NewGroup(float64(1 + e)) // deliberately uneven weights
		ports[e] = se.NewPort()
	}
	if !elide {
		// A barrier hook without an idle predicate vetoes elision.
		se.SetBarrier(func(Tick) {})
	}
	se.SetDeliver(func(env Envelope) {
		eng := se.Group(int(env.Endpoint))
		log[env.Endpoint] = append(log[env.Endpoint],
			pingRecord{at: env.At, ep: env.Endpoint, u: env.P.U0, cnt: env.P.U1})
		if env.P.U1 >= 12 {
			return
		}
		src := env.Endpoint
		dst := (env.Endpoint + 1 + env.P.U1%2) % eps
		// Respond after a little local work.
		cnt := env.P.U1 + 1
		eng.At(eng.Now()+3, func() {
			se.Outbox(int(src)).Post(ports[src], dst, dst,
				eng.Now()+60, Payload{U0: src, U1: cnt}, nil)
		})
	})
	// Seed: every endpoint fires one initial message to its neighbor.
	for e := int32(0); e < eps; e++ {
		e := e
		eng := se.Group(int(e))
		dst := (e + 1) % eps
		eng.At(Tick(e), func() {
			se.Outbox(int(e)).Post(ports[e], dst, dst,
				eng.Now()+60, Payload{U0: e, U1: 0}, nil)
		})
	}
	se.Run()
	return log, se
}

// TestMailboxPlacementInvariance runs the same message-driven workload at
// 2, 3 and 4 workers — 4 puts every group alone on a worker, the most-split
// placement — with barrier elision on and off, and requires each endpoint
// to observe the 1-worker message sequence. (A single global order is NOT
// part of the contract: components in different groups may interleave
// freely within a window precisely because they share no state.)
func TestMailboxPlacementInvariance(t *testing.T) {
	base, _ := pingWorkload(1, true)
	total := 0
	for _, seq := range base {
		total += len(seq)
	}
	if total == 0 {
		t.Fatal("no deliveries")
	}
	for _, n := range []int{2, 3, 4} {
		for _, elide := range []bool{true, false} {
			name := fmt.Sprintf("workers=%d elide=%v", n, elide)
			got, _ := pingWorkload(n, elide)
			for ep := range base {
				if len(got[ep]) != len(base[ep]) {
					t.Fatalf("%s: endpoint %d saw %d messages, want %d", name, ep, len(got[ep]), len(base[ep]))
				}
				for i := range base[ep] {
					if got[ep][i] != base[ep][i] {
						t.Fatalf("%s: endpoint %d message %d = %+v, want %+v",
							name, ep, i, got[ep][i], base[ep][i])
					}
				}
			}
		}
	}
}

// TestSchedStatsFollowStaticPlacement pins the placement contract: the
// PlaceGroups assignment over the static group weights holds for the whole
// run, so SchedStats' cross-shard envelope count and per-worker fired
// shares are exactly what that one assignment gives.
func TestSchedStatsFollowStaticPlacement(t *testing.T) {
	for _, workers := range []int{2, 3} {
		log, se := pingWorkload(workers, true)
		weights := make([]float64, se.Groups())
		for g := range weights {
			weights[g] = se.GroupWeight(g)
		}
		assign := PlaceGroups(weights, workers)
		var envs, cross int64
		for _, recs := range log {
			for _, r := range recs {
				envs++
				if assign[r.u] != assign[r.ep] {
					cross++
				}
			}
		}
		if cross == 0 || cross == envs {
			t.Fatalf("workers=%d: degenerate workload, %d of %d envelopes cross workers", workers, cross, envs)
		}
		fired := make([]uint64, workers)
		var total uint64
		for g, w := range assign {
			f := se.Group(g).Fired()
			fired[w] += f
			total += f
		}
		st := se.SchedStats()
		if st.Envelopes != envs || st.CrossShardEnvelopes != cross {
			t.Errorf("workers=%d: %d envelopes, %d cross-shard; the static assignment %v gives %d, %d",
				workers, st.Envelopes, st.CrossShardEnvelopes, assign, envs, cross)
		}
		for w := range fired {
			if want := float64(fired[w]) / float64(total); st.WorkerFiredShare[w] != want {
				t.Errorf("workers=%d: worker %d fired share %v, the static assignment %v gives %v",
					workers, w, st.WorkerFiredShare[w], assign, want)
			}
		}
	}
}

// TestMailboxSlotReuse drives steady-state traffic over many windows and
// requires the calendar envelope pools to stop growing: no leaks across
// windows, slots and address buffers recycled.
func TestMailboxSlotReuse(t *testing.T) {
	se := NewSharded(2, 50)
	se.NewGroup(1)
	se.NewGroup(1)
	p0, p1 := se.NewPort(), se.NewPort()
	addrs := []uint64{1, 2, 3, 4}
	var delivered int
	se.SetDeliver(func(env Envelope) {
		delivered++
		if env.P.U1 >= 400 {
			return
		}
		// Bounce back: the handler runs on the receiving group's engine, so
		// it posts from that group's outbox using that group's clock.
		if env.Endpoint == 0 {
			se.Outbox(0).Post(p0, 1, 1, se.Group(0).Now()+60, Payload{U1: env.P.U1 + 1}, addrs)
		} else {
			se.Outbox(1).Post(p1, 0, 0, se.Group(1).Now()+60, Payload{U1: env.P.U1 + 1}, addrs)
		}
	})
	// Bootstrap: group 1 posts the first message.
	se.Group(1).At(0, func() {
		se.Outbox(1).Post(p1, 0, 0, 60, Payload{U1: 0}, addrs)
	})
	se.Run()
	if delivered < 400 {
		t.Fatalf("only %d deliveries", delivered)
	}
	if se.PendingMessages() != 0 {
		t.Errorf("%d messages leaked after drain", se.PendingMessages())
	}
	if cap0 := se.InboxCapacity(0); cap0 > 4 {
		t.Errorf("envelope arena grew to %d slots under ping-pong traffic (want <= 4)", cap0)
	}
}

// TestMailboxSteadyStateZeroAlloc re-runs a warmed message cycle and
// requires zero heap allocations: outbox rings, merge scratch, calendar
// envelope slots, per-window plans, and engine events must all recycle.
func TestMailboxSteadyStateZeroAlloc(t *testing.T) {
	se := NewSharded(2, 50)
	se.NewGroup(1)
	se.NewGroup(1)
	p0, p1 := se.NewPort(), se.NewPort()
	addrs := []uint64{1, 2, 3}
	remaining := 0
	se.SetDeliver(func(env Envelope) {
		if remaining <= 0 {
			return
		}
		remaining--
		if env.Endpoint == 0 {
			se.Outbox(0).Post(p0, 1, 1, se.Group(0).Now()+60, Payload{}, addrs)
		} else {
			se.Outbox(1).Post(p1, 0, 0, se.Group(1).Now()+60, Payload{}, addrs)
		}
	})
	cycle := func() {
		// Group clocks drift apart once queues drain (idle groups stop
		// advancing); align them before re-seeding so the bootstrap post's
		// delivery time is in every group's future.
		var end Tick
		for i := 0; i < se.Groups(); i++ {
			if now := se.Group(i).Now(); now > end {
				end = now
			}
		}
		for i := 0; i < se.Groups(); i++ {
			se.Group(i).RunUntil(end)
		}
		remaining = 50
		se.Outbox(0).Post(p0, 1, 1, end+60, Payload{}, addrs)
		se.Run()
	}
	cycle() // warm pools
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Errorf("steady-state mailbox cycle allocates %.1f objects/run, want 0", allocs)
	}
}

// TestMailboxLookaheadViolationPanics pins the conservative-window guard: a
// message delivered inside the current window is a modelling bug.
func TestMailboxLookaheadViolationPanics(t *testing.T) {
	se := NewSharded(2, 50)
	se.NewGroup(1)
	se.NewGroup(1)
	port := se.NewPort()
	se.SetDeliver(func(Envelope) {})
	defer func() {
		if recover() == nil {
			t.Error("short-latency Post did not panic")
		}
	}()
	se.Group(0).At(10, func() {
		// Window is [10, 60); delivery at 20 violates the lookahead.
		se.Outbox(0).Post(port, 1, 1, 20, Payload{}, nil)
	})
	se.Run()
}

// TestBarrierElisionSkipsEmptyWindows pins the empty-barrier fast path: a
// burst of cross-group messages followed by a long message-free local tail
// must elide the silent windows' barriers — and an installed barrier hook
// with an idle predicate must not fire during them.
func TestBarrierElisionSkipsEmptyWindows(t *testing.T) {
	se := NewSharded(2, 50)
	se.NewGroup(1)
	se.NewGroup(1)
	p0 := se.NewPort()
	idle := true
	var barriers int
	se.SetDeliver(func(env Envelope) {
		// A message-free tail: 40 local events spaced one window apart.
		eng := se.Group(int(env.Endpoint))
		var tick func()
		n := 0
		tick = func() {
			if n++; n < 40 {
				eng.At(eng.Now()+60, tick)
			}
		}
		eng.At(eng.Now()+60, tick)
	})
	se.SetBarrier(func(Tick) { barriers++ })
	se.SetBarrierIdle(func() bool { return idle })
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(p0, 1, 1, 60, Payload{}, nil)
	})
	se.Run()
	s := se.SchedStats()
	if s.WindowsElided == 0 {
		t.Fatalf("no windows elided across a message-free tail: %+v", s)
	}
	if got := int64(barriers); got != s.WindowsRun {
		t.Errorf("barrier fired %d times, want once per non-elided window (%d)", barriers, s.WindowsRun)
	}
	if s.Envelopes != 1 {
		t.Errorf("envelope count %d, want 1", s.Envelopes)
	}
}

// TestBarrierNotIdleDisablesElision: a barrier whose idle predicate reports
// false must fire every window — elision never skips live bookkeeping.
func TestBarrierNotIdleDisablesElision(t *testing.T) {
	se := NewSharded(2, 50)
	se.NewGroup(1)
	se.NewGroup(1)
	p0 := se.NewPort()
	se.SetDeliver(func(env Envelope) {
		eng := se.Group(int(env.Endpoint))
		n := 0
		var tick func()
		tick = func() {
			if n++; n < 10 {
				eng.At(eng.Now()+60, tick)
			}
		}
		eng.At(eng.Now()+60, tick)
	})
	se.SetBarrier(func(Tick) {})
	se.SetBarrierIdle(func() bool { return false })
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(p0, 1, 1, 60, Payload{}, nil)
	})
	se.Run()
	if s := se.SchedStats(); s.WindowsElided != 0 {
		t.Errorf("%d windows elided under a never-idle barrier", s.WindowsElided)
	}
}

// TestElisionGateViolationPanics pins the elision safety check: eliding a
// window while an outbox still stages a message would silently drop it, so
// elideWindow must panic with a structured *ElisionError instead.
func TestElisionGateViolationPanics(t *testing.T) {
	se := NewSharded(2, 50)
	se.NewGroup(1)
	se.NewGroup(1)
	port := se.NewPort()
	se.SetDeliver(func(Envelope) {})
	se.ensureScratch()
	se.curEnd = 49
	se.Outbox(0).Post(port, 1, 1, 60, Payload{}, nil)
	defer func() {
		p := recover()
		ee, ok := p.(*ElisionError)
		if !ok {
			t.Fatalf("elideWindow with a staged message panicked with %v, want *ElisionError", p)
		}
		if ee.Group != 0 || ee.Staged != 1 {
			t.Errorf("ElisionError = %+v, want group 0 with 1 staged message", ee)
		}
	}()
	se.elideWindow()
}

// TestBarrierHookTimes verifies the barrier fires once per window with
// increasing window-end times.
func TestBarrierHookTimes(t *testing.T) {
	se := NewSharded(2, 50)
	se.NewGroup(1)
	se.NewGroup(1)
	port := se.NewPort()
	se.SetDeliver(func(env Envelope) {})
	var barriers []Tick
	se.SetBarrier(func(at Tick) { barriers = append(barriers, at) })
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(port, 1, 1, 60, Payload{}, nil)
	})
	se.Run()
	if len(barriers) < 2 {
		t.Fatalf("barriers = %v, want at least the posting and delivery windows", barriers)
	}
	for i := 1; i < len(barriers); i++ {
		if barriers[i] <= barriers[i-1] {
			t.Fatalf("barrier times not increasing: %v", barriers)
		}
	}
}

// BenchmarkMailboxPingPong measures cross-group message cost: one message
// bounced between two groups through the full window/merge/inject cycle.
func BenchmarkMailboxPingPong(b *testing.B) {
	se := NewSharded(2, 50)
	se.NewGroup(1)
	se.NewGroup(1)
	p0, p1 := se.NewPort(), se.NewPort()
	addrs := []uint64{1, 2, 3, 4}
	remaining := 0
	se.SetDeliver(func(env Envelope) {
		if remaining <= 0 {
			return
		}
		remaining--
		if env.Endpoint == 0 {
			se.Outbox(0).Post(p0, 1, 1, se.Group(0).Now()+60, Payload{}, addrs)
		} else {
			se.Outbox(1).Post(p1, 0, 0, se.Group(1).Now()+60, Payload{}, addrs)
		}
	})
	sync := func() Tick {
		var end Tick
		for i := 0; i < se.Groups(); i++ {
			if now := se.Group(i).Now(); now > end {
				end = now
			}
		}
		for i := 0; i < se.Groups(); i++ {
			se.Group(i).RunUntil(end)
		}
		return end
	}
	remaining = 8
	se.Outbox(0).Post(p0, 1, 1, sync()+60, Payload{}, addrs)
	se.Run() // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	const hops = 64
	for i := 0; i < b.N; i++ {
		remaining = hops
		se.Outbox(0).Post(p0, 1, 1, sync()+60, Payload{}, addrs)
		se.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/msg")
}
