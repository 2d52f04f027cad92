package fabric

import (
	"strings"
	"testing"

	"pifsrec/internal/cxl"
	"pifsrec/internal/dram"
	"pifsrec/internal/isa"
	"pifsrec/internal/osb"
	"pifsrec/internal/pifs"
	"pifsrec/internal/sim"
)

func smallGeo() dram.Geometry {
	return dram.Geometry{Channels: 2, Ranks: 1, BankGroups: 2, Banks: 2, Rows: 1024, RowBytes: 2048}
}

// vecBytes is the row-vector size every rig is wired for.
const vecBytes = 64

// arrival is one message the stub host received.
type arrival struct {
	kind uint16
	tag  uint8
	flag uint8
	at   sim.Tick
}

// stubHost is endpoint 0 of a rig: it records every KindRowData /
// KindPIFSResult delivered to it.
type stubHost struct {
	sim.NoWindowHooks
	got []arrival
}

func (h *stubHost) HandleMsg(env sim.Envelope) {
	h.got = append(h.got, arrival{kind: env.P.Kind, tag: env.P.Tag, flag: env.P.Flag, at: env.At})
}
func (*stubHost) ComponentGroup() int32 { return 0 }
func (*stubHost) CostWeight() float64   { return 1 }

// rig is the 1-group harness the switch tests drive: a stub host, the
// switches and their Type 3 devices all live on group 0 of one sharded
// engine and talk only through bound links, wired the way the engine wires
// a fabric — a host FlexBus pair per switch, a DSP pair per device, and
// request/response channels between every ordered pair of switches.
type rig struct {
	se   *sim.ShardedEngine
	eng  *sim.Engine
	host *stubHost
	sws  []*Switch
	devs [][]*cxl.Type3Device
	down []*cxl.Link // host -> switch w
}

// newRig builds one switch per config (its ID set to its index) with n
// devices each. A config without a Route gets an identity-by-stripe route:
// consecutive 4 KB frames round-robin across the switch's devices.
func newRig(t *testing.T, cfgs []Config, n int) *rig {
	t.Helper()
	se := sim.NewSharded(1, cxl.PortOverheadNS)
	se.NewGroup(0)
	eng := se.Group(0)
	r := &rig{se: se, eng: eng, host: &stubHost{}}
	if ep := se.Register(r.host); ep != 0 {
		t.Fatalf("host registered as endpoint %d", ep)
	}
	S := len(cfgs)
	switchEp := func(w int) int32 { return int32(1 + w) }
	deviceEp := func(w, i int) int32 { return int32(1 + S + w*n + i) }
	link := func(name string, gbps float64, prop sim.Tick, dst int32) *cxl.Link {
		l := cxl.NewLink(eng, name, gbps, prop)
		l.Bind(se.Outbox(0), se.NewPort(), 0, dst)
		return l
	}

	devCap := smallGeo().Capacity()
	hasCore := make([]bool, S)
	for w, cfg := range cfgs {
		cfg.ID = w
		if cfg.Route == nil {
			cfg.Route = func(addr uint64) (int, uint64) {
				frame := addr / 4096
				dev := int(frame) % n
				local := (frame/uint64(n))*4096 + addr%4096
				return dev, local % uint64(devCap)
			}
		}
		sw := New(eng, cfg)
		r.sws = append(r.sws, sw)
		hasCore[w] = sw.HasCore()
	}
	nets := make([]Net, S)
	for w, sw := range r.sws {
		r.down = append(r.down, link("host.down", cxl.PCIe5x16GBs, cxl.PortOverheadNS, switchEp(w)))
		nets[w] = Net{
			VecBytes:    vecBytes,
			HostUp:      []*cxl.Link{link("host.up", cxl.PCIe5x16GBs, cxl.PortOverheadNS, 0)},
			PeerReq:     make([]*cxl.Link, S),
			PeerRsp:     make([]*cxl.Link, S),
			PeerHasCore: hasCore,
		}
		var devs []*cxl.Type3Device
		for i := 0; i < n; i++ {
			dev := cxl.NewType3(eng, cxl.DeviceConfig{
				ID: w*n + i, PortID: uint16(100 + w*n + i), Geometry: smallGeo(), Timing: dram.DDR4_3200(),
			})
			bw := sw.DSPBandwidthGBs()
			nets[w].DevDown = append(nets[w].DevDown, link("dsp.down", bw, cxl.PortOverheadNS, deviceEp(w, i)))
			dev.Bind(link("dsp.up", bw, cxl.PortOverheadNS, switchEp(w)), vecBytes)
			devs = append(devs, dev)
		}
		r.devs = append(r.devs, devs)
		for p := range r.sws {
			if p != w {
				nets[w].PeerReq[p] = link("peer.req", sw.DSPBandwidthGBs(), cxl.SwitchForwardNS, switchEp(p))
				nets[w].PeerRsp[p] = link("peer.rsp", sw.DSPBandwidthGBs(), cxl.SwitchForwardNS, switchEp(p))
			}
		}
	}
	for w, sw := range r.sws {
		sw.BindNet(nets[w])
		if ep := se.Register(sw); ep != switchEp(w) {
			t.Fatalf("switch %d registered as endpoint %d", w, ep)
		}
	}
	for w, devs := range r.devs {
		for i, dev := range devs {
			if ep := se.Register(dev); ep != deviceEp(w, i) {
				t.Fatalf("device %d/%d registered as endpoint %d", w, i, ep)
			}
		}
	}
	return r
}

// bypass sends a standard MemRd for addr to switch w (Pond-style path).
func (r *rig) bypass(w int, addr uint64, tag uint8) {
	r.down[w].SendMsg(isa.SlotBytes, sim.Payload{Kind: KindBypassRow, A: addr, Tag: tag}, nil)
}

// stream sends switch w one Configuration slot for key plus a DataFetch per
// address, as one batched instruction stream.
func (r *rig) stream(w int, key pifs.ClusterKey, candidates int, tag uint8, addrs ...uint64) {
	r.down[w].SendMsg(isa.SlotBytes*(1+len(addrs)), sim.Payload{
		Kind: KindPIFSStream, B: PackKey(key), U1: int32(candidates), Tag: tag,
	}, addrs)
}

// peerBatch asks switch w to forward fetches to peer, to be accumulated in
// sub there and folded into key on w.
func (r *rig) peerBatch(w, peer int, sub, key pifs.ClusterKey, addrs ...uint64) {
	r.down[w].SendMsg(isa.SlotBytes*len(addrs), sim.Payload{
		Kind: KindPeerBatch, A: PackKey(sub), B: PackKey(key), U0: int32(peer),
	}, addrs)
}

// run drains the rig and checks every switch released its transfer records.
func (r *rig) run(t *testing.T) {
	t.Helper()
	r.se.Run()
	for _, sw := range r.sws {
		if n := sw.InFlightRecords(); n != 0 {
			t.Fatalf("switch %d leaked %d transfer records", sw.ID(), n)
		}
	}
}

// result returns the single arrival of the given kind and tag.
func (r *rig) result(t *testing.T, kind uint16, tag uint8) arrival {
	t.Helper()
	var found []arrival
	for _, a := range r.host.got {
		if a.kind == kind && a.tag == tag {
			found = append(found, a)
		}
	}
	if len(found) != 1 {
		t.Fatalf("host got %d messages of kind %#x tag %d, want 1 (all: %+v)", len(found), kind, tag, r.host.got)
	}
	return found[0]
}

func pifsCfg() Config {
	return Config{PortID: 7, HasCore: true, Core: pifs.DefaultConfig()}
}

func TestBypassReadCompletes(t *testing.T) {
	r := newRig(t, []Config{{}}, 2)
	r.bypass(0, 0, 3)
	r.run(t)
	got := r.result(t, KindRowData, 3)
	// Must include bypass latency, four port crossings, and DRAM time:
	// well over the raw 100 ns CXL penalty.
	if got.at < 100 {
		t.Fatalf("bypass read %d ns implausibly fast", got.at)
	}
	if s := r.sws[0]; s.Stats().BypassReads != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestPIFSAccumulationRoundTrip(t *testing.T) {
	r := newRig(t, []Config{pifsCfg()}, 2)
	key := pifs.ClusterKey{SPID: 1, SumTag: 2}
	r.stream(0, key, 4, 2, 0, 4096, 8192, 12288)
	r.run(t)
	if got := r.result(t, KindPIFSResult, 2); got.flag != 0 {
		t.Fatalf("result flagged degraded: %+v", got)
	}
	s := r.sws[0]
	if s.Stats().PIFSFetches != 4 || s.Stats().PIFSConfigs != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	if s.Core.Stats().RowsFolded != 4 {
		t.Fatalf("core folded %d rows, want 4", s.Core.Stats().RowsFolded)
	}
	// One 64 B line per fetch, spread over both devices.
	if reads := r.devs[0][0].Stats().Reads + r.devs[0][1].Stats().Reads; reads != 4 {
		t.Fatalf("device reads = %d, want 4", reads)
	}
}

func TestPIFSWithoutCorePanics(t *testing.T) {
	r := newRig(t, []Config{{}}, 1)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "no process core") {
			t.Errorf("KindPIFSStream on a CNV=0 switch: recovered %q, want a no-process-core panic", msg)
		}
	}()
	r.sws[0].HandleMsg(sim.Envelope{
		P:     sim.Payload{Kind: KindPIFSStream, B: PackKey(pifs.ClusterKey{}), U1: 1},
		Addrs: []uint64{0},
	})
}

func TestBufferHitSkipsDevice(t *testing.T) {
	cfg := pifsCfg()
	cfg.BufferBytes = osb.MinCapacity
	r := newRig(t, []Config{cfg}, 2)
	// The first fetch misses and inserts; the second hits.
	r.stream(0, pifs.ClusterKey{SumTag: 1}, 2, 1, 4096, 4096)
	r.run(t)
	r.result(t, KindPIFSResult, 1)
	st := r.sws[0].Stats()
	if st.BufferHits != 1 || st.BufferMisses != 1 {
		t.Fatalf("buffer hits/misses = %d/%d, want 1/1", st.BufferHits, st.BufferMisses)
	}
	// Device saw exactly one vector's worth of reads (64 B = 1 line).
	if reads := r.devs[0][0].Stats().Reads + r.devs[0][1].Stats().Reads; reads != 1 {
		t.Fatalf("device reads = %d, want 1 (second access served by buffer)", reads)
	}
}

func TestBufferHitLatencyLower(t *testing.T) {
	// Warm the address once, then time a second cluster fetching it again,
	// issued well after the first has drained.
	const secondAt = 10_000
	run := func(buffered bool) sim.Tick {
		cfg := pifsCfg()
		if buffered {
			cfg.BufferBytes = osb.MinCapacity
		}
		r := newRig(t, []Config{cfg}, 1)
		r.stream(0, pifs.ClusterKey{SumTag: 1}, 1, 1, 0)
		r.eng.At(secondAt, func() { r.stream(0, pifs.ClusterKey{SumTag: 2}, 1, 2, 0) })
		r.run(t)
		if warm := r.result(t, KindPIFSResult, 1); warm.at >= secondAt {
			t.Fatalf("warm-up finished at %d, after the timed round started", warm.at)
		}
		return r.result(t, KindPIFSResult, 2).at - secondAt
	}
	hot := run(true)
	cold := run(false)
	if hot >= cold {
		t.Fatalf("buffered rerun (%d ns) not faster than unbuffered (%d ns)", hot, cold)
	}
}

func TestForwardFetchWithCorePeer(t *testing.T) {
	remoteCfg := pifsCfg()
	remoteCfg.PortID = 8
	r := newRig(t, []Config{pifsCfg(), remoteCfg}, 1)
	local, remote := r.sws[0], r.sws[1]

	// Local cluster: 2 local rows + 1 sub-sum from the remote switch.
	key := pifs.ClusterKey{SPID: 1, SumTag: 1}
	sub := pifs.ClusterKey{SPID: 1, SumTag: 63} // sub-cluster on the remote
	r.stream(0, key, 3, 1, 0, 4096)
	r.peerBatch(0, 1, sub, key, 0, 4096, 8192)
	r.run(t)
	got := r.result(t, KindPIFSResult, 1)
	// Forwarding latency must include two inter-switch crossings.
	if got.at < 2*cxl.SwitchForwardNS {
		t.Fatalf("result at %d ns, too fast for two switch hops", got.at)
	}
	if local.Stats().Forwarded != 1 || remote.Stats().Received != 1 {
		t.Fatal("forward counters wrong")
	}
	if remote.Core.Stats().RowsFolded != 3 {
		t.Fatalf("remote folded %d rows, want 3", remote.Core.Stats().RowsFolded)
	}
	// The peer's pre-accumulated partial folds locally as one candidate.
	if local.Core.Stats().RowsFolded != 3 {
		t.Fatalf("local folded %d rows, want 2 local + 1 partial", local.Core.Stats().RowsFolded)
	}
}

func TestForwardFetchToCorelessPeer(t *testing.T) {
	r := newRig(t, []Config{pifsCfg(), {}}, 1)
	local, dumb := r.sws[0], r.sws[1]

	// The CNV=0 peer cannot pre-accumulate: all three raw vectors come back,
	// and the forwarding switch folds the set as one candidate once the last
	// has crossed.
	key := pifs.ClusterKey{SumTag: 5}
	r.stream(0, key, 1, 5)
	r.peerBatch(0, 1, pifs.ClusterKey{}, key, 0, 4096, 8192)
	r.run(t)
	r.result(t, KindPIFSResult, 5)
	if dumb.Stats().BypassReads != 3 || dumb.Stats().Received != 1 {
		t.Fatalf("peer stats = %+v, want 3 bypass reads of 1 forwarded batch", dumb.Stats())
	}
	if local.Stats().Forwarded != 1 || local.Core.Stats().RowsFolded != 1 {
		t.Fatalf("local forwarded %d batches, folded %d rows; want 1/1",
			local.Stats().Forwarded, local.Core.Stats().RowsFolded)
	}
}

func TestInvalidateBuffer(t *testing.T) {
	cfg := pifsCfg()
	cfg.BufferBytes = osb.MinCapacity
	r := newRig(t, []Config{cfg, {}}, 1)
	s := r.sws[0]
	r.stream(0, pifs.ClusterKey{SumTag: 1}, 2, 1, 0, 4096)
	r.run(t)
	if !s.Buffer.Contains(0) || !s.Buffer.Contains(4096) {
		t.Fatal("vectors not cached after miss")
	}
	if n := s.InvalidateBufferRange(0, 4096); n != 1 {
		t.Fatalf("invalidated %d vectors in [0, 4096), want 1", n)
	}
	if s.Buffer.Contains(0) || !s.Buffer.Contains(4096) {
		t.Fatal("range invalidation dropped the wrong vectors")
	}
	// No-op on a coreless, bufferless switch.
	if n := r.sws[1].InvalidateBufferRange(0, 1<<20); n != 0 {
		t.Fatalf("bufferless switch invalidated %d vectors", n)
	}
}

func TestConcurrentClustersInterleaveOnCore(t *testing.T) {
	cfg := pifsCfg()
	cfg.Core.Lanes = 1 // single lane so interleaved clusters must swap
	r := newRig(t, []Config{cfg}, 2)
	// Cluster 0 reads even frames (device 0), cluster 1 odd frames (device
	// 1): the two devices return in parallel, so vectors of the two
	// clusters reach the core interleaved.
	for tag := 0; tag < 2; tag++ {
		var addrs []uint64
		for i := 0; i < 4; i++ {
			addrs = append(addrs, uint64((i*2+tag)*4096))
		}
		r.stream(0, pifs.ClusterKey{SumTag: uint8(tag)}, 4, uint8(tag), addrs...)
	}
	r.run(t)
	r.result(t, KindPIFSResult, 0)
	r.result(t, KindPIFSResult, 1)
	// Interleaved device completions should have exercised tag switching.
	if r.sws[0].Core.Stats().TagSwitches == 0 {
		t.Error("no tag switches despite interleaved clusters")
	}
}
