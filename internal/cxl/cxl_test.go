package cxl

import (
	"testing"
	"testing/quick"

	"pifsrec/internal/dram"
	"pifsrec/internal/sim"
)

// sink is a mailbox endpoint on group 0 that records every delivery.
type sink struct {
	sim.NoWindowHooks
	got []sim.Envelope
}

func (k *sink) HandleMsg(env sim.Envelope) { k.got = append(k.got, env) }
func (*sink) ComponentGroup() int32        { return 0 }
func (*sink) CostWeight() float64          { return 1 }

// rig is a 1-group sharded engine with a recording sink registered as its
// first endpoint, the harness the link and device tests drive.
type rig struct {
	se   *sim.ShardedEngine
	eng  *sim.Engine
	sink *sink
}

func newRig() *rig {
	// A 1 ns window is a valid lookahead for any link: every transfer
	// occupies the lanes for at least 1 ns.
	se := sim.NewSharded(1, 1)
	g := se.NewGroup(0)
	k := &sink{}
	se.Register(k)
	return &rig{se: se, eng: se.Group(int(g)), sink: k}
}

// link builds a link on the rig's group, bound to the sink.
func (r *rig) link(gbps float64, propNS sim.Tick) *Link {
	l := NewLink(r.eng, "t", gbps, propNS)
	l.Bind(r.se.Outbox(0), r.se.NewPort(), 0, 0)
	return l
}

// send posts a header-only payload tagged n and returns its arrival time.
func send(l *Link, bytes int, n int32) sim.Tick {
	return l.SendMsg(bytes, sim.Payload{Kind: 1, U0: n}, nil)
}

func TestLinkSingleTransfer(t *testing.T) {
	r := newRig()
	l := r.link(64, 20) // 64 GB/s, 20 ns propagation
	at := send(l, 640, 0)
	r.se.Run()
	// 640 B at 64 B/ns = 10 ns serialization + 20 ns propagation = 30.
	if at != 30 {
		t.Fatalf("arrival at %d, want 30", at)
	}
	if len(r.sink.got) != 1 || r.sink.got[0].At != at {
		t.Fatalf("deliveries %+v, want one at %d", r.sink.got, at)
	}
}

func TestLinkSerialization(t *testing.T) {
	r := newRig()
	l := r.link(64, 0)
	first := send(l, 6400, 0)  // 100 ns
	second := send(l, 6400, 1) // queues behind
	if first != 100 || second != 200 {
		t.Fatalf("arrivals at %d/%d, want 100/200", first, second)
	}
	st := l.Stats()
	if st.Transfers != 2 || st.BytesMoved != 12800 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WaitNS != 100 {
		t.Fatalf("WaitNS = %d, want 100 (second transfer queued)", st.WaitNS)
	}
	r.se.Run()
	got := r.sink.got
	if len(got) != 2 || got[0].At != first || got[1].At != second || got[0].P.U0 != 0 || got[1].P.U0 != 1 {
		t.Fatalf("deliveries %+v, want transfers 0 then 1 at 100/200", got)
	}
}

func TestLinkMinimumOccupancy(t *testing.T) {
	r := newRig()
	l := r.link(64, 0)
	if at := send(l, 16, 0); at < 1 { // sub-ns payload
		t.Fatalf("arrival at %d, want >= 1 ns occupancy", at)
	}
}

func TestLinkUtilization(t *testing.T) {
	r := newRig()
	l := r.link(64, 0)
	send(l, 6400, 0) // 100 ns busy
	r.eng.At(200, func() {})
	r.se.Run()
	u := l.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestLinkBandwidthProperty(t *testing.T) {
	// Property: N back-to-back transfers of the same size complete no faster
	// than bytes/bandwidth allows.
	f := func(nRaw, szRaw uint8) bool {
		n := int(nRaw%20) + 1
		size := (int(szRaw%64) + 1) * 64
		l := newRig().link(64, 0)
		var last sim.Tick
		for i := 0; i < n; i++ {
			if a := send(l, size, int32(i)); a > last {
				last = a
			}
		}
		minNS := sim.Tick(float64(n*size) / 64.0)
		return last >= minNS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkPanicsOnBadArgs(t *testing.T) {
	r := newRig()
	cases := map[string]func(){
		"zero bandwidth":   func() { NewLink(r.eng, "bad", 0, 0) },
		"zero-byte send":   func() { send(r.link(1, 0), 0, 0) },
		"send before Bind": func() { send(NewLink(r.eng, "unbound", 1, 0), 64, 0) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}

func smallGeo() dram.Geometry {
	return dram.Geometry{Channels: 2, Ranks: 1, BankGroups: 2, Banks: 2, Rows: 256, RowBytes: 1024}
}

// device builds a Type 3 device on the rig's group whose DSP up-link
// delivers to the sink, bound for vecBytes-long reads.
func (r *rig) device(vecBytes int) (*Type3Device, *Link) {
	dev := NewType3(r.eng, DeviceConfig{Geometry: smallGeo(), Timing: dram.DDR4_3200()})
	up := r.link(PCIe5x16GBs, 0)
	dev.Bind(up, vecBytes)
	return dev, up
}

// read delivers a KindDevRead for addr carrying requester token tok.
func read(dev *Type3Device, addr uint64, tok int32) {
	dev.HandleMsg(sim.Envelope{P: sim.Payload{Kind: KindDevRead, A: addr, U0: tok}})
}

func TestType3AccessAddsControllerOverhead(t *testing.T) {
	r := newRig()
	dev, up := r.device(64)
	read(dev, 0, 5)
	r.se.Run()
	if len(r.sink.got) != 1 {
		t.Fatalf("%d replies, want 1", len(r.sink.got))
	}
	reply := r.sink.got[0]
	if reply.P.Kind != KindDevData || reply.P.U0 != 5 {
		t.Fatalf("reply payload %+v, want KindDevData echoing token 5", reply.P)
	}

	// Compare against raw DRAM.
	eng := sim.NewEngine()
	raw := dram.NewController(eng, smallGeo(), dram.DDR4_3200())
	var rawDone sim.Tick
	raw.SubmitRange(0, 64, false, 0, func(_ int32, at sim.Tick) { rawDone = at }, 0)
	eng.Run()

	// The reply leaves the device a controller share after the data beat
	// and then serializes onto the up-link.
	if want := rawDone + AccessPenaltyNS/2 + up.serNS(64); reply.At != want {
		t.Fatalf("CXL read reply at %d ns, want %d (raw DRAM %d ns): controller share not applied",
			reply.At, want, rawDone)
	}
}

func TestType3AccessVector(t *testing.T) {
	r := newRig()
	dev, _ := r.device(256)
	read(dev, 0, 1)
	r.se.Run()
	if len(r.sink.got) != 1 {
		t.Fatal("vector read never completed")
	}
	if st := dev.Stats(); st.Reads != 4 {
		t.Fatalf("256 B vector should issue 4 line reads, got %d", st.Reads)
	}
}

func TestType3VectorValidation(t *testing.T) {
	r := newRig()
	dev := NewType3(r.eng, DeviceConfig{Geometry: smallGeo(), Timing: dram.DDR4_3200()})
	defer func() {
		if recover() == nil {
			t.Error("non-multiple vector size accepted")
		}
	}()
	dev.Bind(r.link(PCIe5x16GBs, 0), 100)
}

func TestType3OutOfRangePanics(t *testing.T) {
	r := newRig()
	dev, _ := r.device(64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access accepted")
		}
	}()
	read(dev, uint64(dev.Capacity()), 0)
}

func TestType3HandleMsgMisusePanics(t *testing.T) {
	r := newRig()
	cases := map[string]func(){
		"read before Bind": func() {
			read(NewType3(r.eng, DeviceConfig{Geometry: smallGeo(), Timing: dram.DDR4_3200()}), 0, 0)
		},
		"unknown kind": func() {
			dev, _ := r.device(64)
			dev.HandleMsg(sim.Envelope{P: sim.Payload{Kind: KindDevData}})
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestBiasTableDefaultsHostBias(t *testing.T) {
	b := NewBiasTable(64 * 1024)
	if b.Pages() != 16 {
		t.Fatalf("Pages = %d, want 16", b.Pages())
	}
	if b.Mode(0) != HostBias {
		t.Fatal("fresh table not host-biased")
	}
}

func TestBiasTableSetRange(t *testing.T) {
	b := NewBiasTable(16 * BiasPageBytes)
	changed := b.SetRange(BiasPageBytes, 3*BiasPageBytes, DeviceBias)
	if changed != 3 {
		t.Fatalf("changed = %d, want 3", changed)
	}
	if b.Mode(0) != HostBias || b.Mode(BiasPageBytes) != DeviceBias ||
		b.Mode(3*BiasPageBytes) != DeviceBias || b.Mode(4*BiasPageBytes) != HostBias {
		t.Fatal("range flip applied to wrong pages")
	}
	// Idempotent: re-flipping costs nothing.
	if again := b.SetRange(BiasPageBytes, 3*BiasPageBytes, DeviceBias); again != 0 {
		t.Fatalf("idempotent flip changed %d pages", again)
	}
	if b.Flips() != 3 {
		t.Fatalf("Flips = %d, want 3", b.Flips())
	}
}

func TestBiasTablePartialPageRange(t *testing.T) {
	b := NewBiasTable(16 * BiasPageBytes)
	// A 1-byte range spanning a page boundary must flip both pages.
	if changed := b.SetRange(BiasPageBytes-1, 2, DeviceBias); changed != 2 {
		t.Fatalf("boundary range flipped %d pages, want 2", changed)
	}
}

func TestBiasTableStringNames(t *testing.T) {
	if HostBias.String() != "host-bias" || DeviceBias.String() != "device-bias" {
		t.Fatal("bias mode names wrong")
	}
}
