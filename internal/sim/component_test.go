package sim

import (
	"testing"
)

func TestPlaceGroupsBalancesAndIsDeterministic(t *testing.T) {
	weights := []float64{10, 1, 1, 1, 1, 1, 5, 5}
	a := PlaceGroups(weights, 3)
	b := PlaceGroups(weights, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement not deterministic: %v vs %v", a, b)
		}
	}
	load := make([]float64, 3)
	for g, w := range a {
		if w < 0 || int(w) >= 3 {
			t.Fatalf("group %d on worker %d", g, w)
		}
		load[w] += weights[g]
	}
	// LPT on these weights: 10 | 5+1+1+1 | 5+1+1 — no worker above 10.
	for w, l := range load {
		if l > 10 {
			t.Errorf("worker %d overloaded: %.0f (loads %v, placement %v)", w, l, load, a)
		}
	}
	// The heaviest group must sit alone on its worker.
	for g := 1; g < len(a); g++ {
		if a[g] == a[0] {
			t.Errorf("group %d shares a worker with the weight-10 group: %v", g, a)
		}
	}
}

func TestPlaceGroupsDegenerateCases(t *testing.T) {
	if got := PlaceGroups(nil, 4); len(got) != 0 {
		t.Errorf("empty weights placed: %v", got)
	}
	one := PlaceGroups([]float64{3, 2, 1}, 1)
	for g, w := range one {
		if w != 0 {
			t.Errorf("single worker: group %d on worker %d", g, w)
		}
	}
	// More workers than groups: each group gets its own worker.
	spread := PlaceGroups([]float64{1, 1}, 8)
	if spread[0] == spread[1] {
		t.Errorf("two groups share a worker with 8 available: %v", spread)
	}
}

// pinger is a minimal Component: it counts messages and window hooks, and
// bounces a decrementing counter to a peer.
type pinger struct {
	ComponentBase
	se       *ShardedEngine
	port     int32
	peerG    int32
	peerEp   int32
	got      int
	starts   int
	ends     int
	lastWend Tick
}

func (p *pinger) HandleMsg(env Envelope) {
	p.got++
	if env.P.U1 <= 0 {
		return
	}
	eng := p.se.Group(int(p.Group))
	p.se.Outbox(int(p.Group)).Post(p.port, p.peerG, p.peerEp,
		eng.Now()+60, Payload{U1: env.P.U1 - 1}, nil)
}

func (p *pinger) UsesWindowHooks() bool { return true }
func (p *pinger) WindowStart(Tick)      { p.starts++ }
func (p *pinger) WindowEnd(at Tick) {
	p.ends++
	p.lastWend = at
}

// TestComponentRegistryDispatch wires two registered components (no deliver
// override) and checks the mailbox routes straight to HandleMsg and window
// hooks fire.
func TestComponentRegistryDispatch(t *testing.T) {
	se := NewSharded(2, 50)
	g0 := se.NewGroup(0)
	g1 := se.NewGroup(0)
	a := &pinger{ComponentBase: ComponentBase{Group: g0, Weight: 2}, se: se, peerG: g1, peerEp: 1}
	b := &pinger{ComponentBase: ComponentBase{Group: g1, Weight: 3}, se: se, peerG: g0, peerEp: 0}
	epA := se.Register(a)
	epB := se.Register(b)
	if epA != 0 || epB != 1 {
		t.Fatalf("endpoints = %d, %d; want 0, 1", epA, epB)
	}
	if se.GroupWeight(int(g0)) != 2 || se.GroupWeight(int(g1)) != 3 {
		t.Fatalf("group weights %v %v, want 2 3", se.GroupWeight(0), se.GroupWeight(1))
	}
	a.port = se.NewPort()
	b.port = se.NewPort()

	se.Group(int(g0)).At(0, func() {
		se.Outbox(int(g0)).Post(a.port, g1, epB, 60, Payload{U1: 9}, nil)
	})
	se.Run()

	if b.got != 5 || a.got != 5 {
		t.Errorf("deliveries a=%d b=%d, want 5 each", a.got, b.got)
	}
	if a.starts == 0 || a.ends == 0 || b.ends == 0 {
		t.Errorf("window hooks not invoked: starts=%d ends=%d", a.starts, a.ends)
	}
	if a.lastWend == 0 {
		t.Error("WindowEnd never saw a window-end time")
	}
	if se.PendingMessages() != 0 {
		t.Errorf("%d messages leaked", se.PendingMessages())
	}
}

// auxProbe records hook calls for a cost-only component.
type auxProbe struct {
	ComponentBase
	ends int
}

func (p *auxProbe) HandleMsg(Envelope)    { panic("aux component got a message") }
func (p *auxProbe) UsesWindowHooks() bool { return true }
func (p *auxProbe) WindowEnd(Tick)        { p.ends++ }

// TestRegisterAuxAddsWeightAndHooks pins the aux-component contract: weight
// folds into the group seed, hooks fire, and no endpoint is consumed.
func TestRegisterAuxAddsWeightAndHooks(t *testing.T) {
	se := NewSharded(1, 50)
	g := se.NewGroup(1)
	probe := &auxProbe{ComponentBase: ComponentBase{Group: g, Weight: 4}}
	se.RegisterAux(probe)
	if w := se.GroupWeight(int(g)); w != 5 {
		t.Fatalf("group weight %v, want 5 (1 seed + 4 aux)", w)
	}
	sink := &pinger{ComponentBase: ComponentBase{Group: g}, se: se}
	if ep := se.Register(sink); ep != 0 {
		t.Fatalf("aux component consumed endpoint space: first real endpoint = %d", ep)
	}
	port := se.NewPort()
	se.Group(int(g)).At(0, func() {
		se.Outbox(int(g)).Post(port, g, 0, 60, Payload{}, nil)
	})
	se.Run()
	if probe.ends == 0 {
		t.Error("aux component's WindowEnd never ran")
	}
	if sink.got != 1 {
		t.Errorf("registered component got %d messages, want 1", sink.got)
	}
}
