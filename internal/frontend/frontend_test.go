package frontend

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/ipv4"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
)

var (
	senderIP = ipv4.Addr{10, 0, 0, 1}
	localIP  = ipv4.Addr{10, 0, 0, 99}
)

const localPort = 44000

// steerRig is a directly driven native front end: 4 queues, one NIC with
// a 2-slot aRFS rule table, driver output straight into the host stack.
type steerRig struct {
	fe *FrontEnd
}

func newSteerRig(t *testing.T) *steerRig {
	t.Helper()
	r := &steerRig{fe: &FrontEnd{}}
	cfg := Config{Params: cost.NativeSMP(), NICCount: 1, Queues: 4, FlowRuleSlots: 2}
	if err := r.fe.Init(cfg, func(q int) func(*buf.SKB) { return r.fe.Stack.InputOn(q) }); err != nil {
		t.Fatal(err)
	}
	r.fe.NICs()[0].OnTransmit = func(nic.Frame) {} // ACKs leave the machine
	return r
}

func flowKey(senderPort uint16) netstack.FlowKey {
	return netstack.FlowKey{Src: senderIP, Dst: localIP, SrcPort: senderPort, DstPort: localPort}
}

// register binds a receiver endpoint for k.
func (r *steerRig) register(t *testing.T, k netstack.FlowKey) {
	t.Helper()
	cfg := tcp.DefaultConfig()
	cfg.LocalIP, cfg.RemoteIP = k.Dst, k.Src
	cfg.LocalPort, cfg.RemotePort = k.DstPort, k.SrcPort
	if _, _, err := r.fe.OpenEndpoint(cfg, func() uint64 { return 0 }, k.Src, k.Dst, k.SrcPort, k.DstPort); err != nil {
		t.Fatal(err)
	}
}

// landingQueue puts one frame of flow k on the wire, reports the NIC queue
// it landed on, and drains every queue into the stack.
func (r *steerRig) landingQueue(t *testing.T, k netstack.FlowKey) int {
	t.Helper()
	n := r.fe.NICs()[0]
	f := packet.MustBuild(packet.TCPSpec{
		SrcIP: k.Src, DstIP: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort,
		Seq: 1, Ack: 1, Flags: tcpwire.FlagACK | tcpwire.FlagPSH,
		Window: 65535, Payload: make([]byte, 100),
	})
	if !n.ReceiveFromWire(nic.Frame{Data: f}) {
		t.Fatal("NIC ring overflow")
	}
	landed := -1
	for q := 0; q < n.RxQueues(); q++ {
		if n.RxQueueLenOn(q) != 0 {
			landed = q
		}
		r.fe.Poll(q, 64)
	}
	return landed
}

// bucketOwner is the CPU the owner map names for k's bucket.
func (r *steerRig) bucketOwner(k netstack.FlowKey) int {
	return r.fe.SteerMap().Queue(k.Hash())
}

// checkOneRecord asserts the flow table's overrides are the one record of
// every steering decision: as many overrides as live NIC rules, each
// steered flow owned by its CPU with its frames landing on queue cpu,
// every other flow back on its bucket, and no delivery ever counted as a
// steal.
func (r *steerRig) checkOneRecord(t *testing.T, step string, flows []netstack.FlowKey, steered map[netstack.FlowKey]int) {
	t.Helper()
	table := r.fe.FlowTable()
	rules := 0
	for _, n := range r.fe.NICs() {
		rules += n.FlowRuleLen()
	}
	if got := table.FlowOwnerOverrides(); got != rules || got != len(steered) {
		t.Errorf("%s: %d overrides, %d NIC rules, %d steered flows", step, got, rules, len(steered))
	}
	for _, k := range flows {
		want, ok := steered[k]
		if !ok {
			want = r.bucketOwner(k)
		}
		if cpu, has := table.FlowOwner(k); has != ok || (ok && cpu != want) {
			t.Errorf("%s: flow %v override = (%d, %v), want (%d, %v)", step, k, cpu, has, want, ok)
		}
		if got := table.OwnerOf(k, k.Hash()); got != want {
			t.Errorf("%s: OwnerOf(%v) = %d, want %d", step, k, got, want)
		}
		if q := r.landingQueue(t, k); q != want {
			t.Errorf("%s: flow %v frame landed on queue %d, want %d", step, k, q, want)
		}
	}
	for i := 0; i < table.Shards(); i++ {
		if s := table.ShardStatsOf(i).Steals; s != 0 {
			t.Fatalf("%s: shard %d counted %d steals", step, i, s)
		}
	}
}

func TestSteerFlowOneOwnerRecord(t *testing.T) {
	r := newSteerRig(t)
	flows := []netstack.FlowKey{flowKey(5001), flowKey(5002), flowKey(5003)}
	for _, k := range flows {
		r.register(t, k)
	}
	steered := map[netstack.FlowKey]int{}
	r.checkOneRecord(t, "registered", flows, steered)

	// Steer each flow one CPU past its bucket's owner. The 2-slot rule
	// table fills after two; the third evicts the least-recently-hit
	// rule — the first flow's, whose frame checkOneRecord sent before the
	// second's — and returns that flow.
	steer := func(k netstack.FlowKey) *netstack.FlowKey {
		t.Helper()
		cpu := (r.bucketOwner(k) + 1) % 4
		victim, err := r.fe.SteerFlow(k, k.Hash(), cpu)
		if err != nil {
			t.Fatal(err)
		}
		steered[k] = cpu
		return victim
	}
	for i, k := range flows[:2] {
		if v := steer(k); v != nil {
			t.Fatalf("steering flow %d evicted %v with a free slot", i, *v)
		}
		r.checkOneRecord(t, "steer", flows, steered)
	}
	victim := steer(flows[2])
	if victim == nil || *victim != flows[0] {
		t.Fatalf("third steer evicted %v, want the first flow %v", victim, flows[0])
	}
	delete(steered, flows[0])
	r.checkOneRecord(t, "evict", flows, steered)

	r.fe.UnsteerFlow(flows[1])
	delete(steered, flows[1])
	r.checkOneRecord(t, "unsteer", flows, steered)

	k := flows[2]
	r.fe.UnregisterEndpoint(k.Src, k.Dst, k.SrcPort, k.DstPort)
	delete(steered, k)
	r.checkOneRecord(t, "unregister", flows, steered)
}
