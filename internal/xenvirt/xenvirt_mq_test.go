package xenvirt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/frontend"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/rss"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
)

// Tests of the multi-queue paravirtual path: per-vCPU I/O channels,
// netback hash steering, endpoint churn (unregister + reconnect) with
// frames still in flight, and the netfront ring's cross-vCPU drain.

// mqRig is a directly driven multi-queue Xen machine.
type mqRig struct {
	m    *Machine
	now  uint64
	sent [][]byte
}

func newMQRig(t *testing.T, mode frontend.Mode, queues int) *mqRig {
	t.Helper()
	r := &mqRig{}
	cfg := frontend.Config{
		Params:      cost.XenGuest(),
		NICCount:    1,
		Queues:      queues,
		Mode:        mode,
		Aggregation: core.DefaultOptions(),
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	m.NICs()[0].OnTransmit = func(f nic.Frame) { r.sent = append(r.sent, f.Data) }
	return r
}

// addFlow registers a guest endpoint for senderPort and returns it.
func (r *mqRig) addFlow(t *testing.T, senderPort uint16) *tcp.Endpoint {
	t.Helper()
	tcfg := tcp.DefaultConfig()
	tcfg.LocalIP, tcfg.RemoteIP = guestIP, senderIP
	tcfg.LocalPort, tcfg.RemotePort = 44000, senderPort
	ep, err := tcp.New(tcfg, &r.m.Meter, &r.m.Params, r.m.Alloc, func() uint64 { return r.now })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.RegisterEndpoint(ep, senderIP, guestIP, senderPort, 44000); err != nil {
		t.Fatal(err)
	}
	return ep
}

// inject puts count MSS-sized frames for senderPort on the wire, starting
// at seq, and returns the next sequence number.
func (r *mqRig) inject(t *testing.T, senderPort uint16, seq uint32, count int) uint32 {
	t.Helper()
	for i := 0; i < count; i++ {
		f := packet.MustBuild(packet.TCPSpec{
			SrcIP: senderIP, DstIP: guestIP,
			SrcPort: senderPort, DstPort: 44000,
			Seq: seq, Ack: 1, Flags: tcpwire.FlagACK | tcpwire.FlagPSH,
			Window: 65535, HasTS: true, TSVal: 7, TSEcr: 3,
			Payload: make([]byte, 1448), IPID: uint16(seq),
		})
		if !r.m.NICs()[0].ReceiveFromWire(nic.Frame{Data: f}) {
			t.Fatal("NIC ring overflow")
		}
		seq += 1448
	}
	return seq
}

// pumpAll runs softirq rounds on every vCPU until all NIC rings drain.
func (r *mqRig) pumpAll() {
	n := r.m.NICs()[0]
	for q := 0; q < n.RxQueues(); q++ {
		for n.RxQueueLenOn(q) > 0 {
			for c := 0; c < r.m.CPUs(); c++ {
				r.m.ProcessRound(c, 64)
			}
		}
	}
}

// deliveringVCPU runs every vCPU's softirq round, one at a time, for two
// passes and returns the vCPU whose round delivered to the guest stack
// (-1 = none). Netfront feeds the stack only from its own vCPU's round —
// inline when netback ran on that core, else at the start of its next
// round — so this is the I/O channel netback chose.
func deliveringVCPU(m *Machine) int {
	got := -1
	for pass := 0; pass < 2; pass++ {
		for cpu := 0; cpu < m.CPUs(); cpu++ {
			before := m.Stack.Stats().HostPacketsIn
			m.ProcessRound(cpu, 64)
			if m.Stack.Stats().HostPacketsIn != before {
				got = cpu
			}
		}
	}
	return got
}

// portOnQueue finds a sender port whose flow the hash steers to queue q.
func portOnQueue(q, queues int) uint16 {
	for p := uint16(5001); ; p++ {
		h := rss.HashTCP4(senderIP, guestIP, p, 44000)
		if rss.QueueOf(h, queues) == q {
			return p
		}
	}
}

func TestMultiQueueChannelDelivery(t *testing.T) {
	for _, mode := range []frontend.Mode{frontend.ModeBaseline, frontend.ModeOptimized} {
		r := newMQRig(t, mode, 2)
		p0 := portOnQueue(0, 2)
		p1 := portOnQueue(1, 2)
		ep0 := r.addFlow(t, p0)
		ep1 := r.addFlow(t, p1)
		r.inject(t, p0, 1, 20)
		r.inject(t, p1, 1, 20)

		// Each flow's frames sit on the hash-named NIC queue.
		if got := r.m.NICs()[0].RxQueueLenOn(0); got != 20 {
			t.Fatalf("mode %d: queue 0 holds %d frames, want 20", mode, got)
		}
		// Each vCPU's round delivers its own flow in full and nothing of
		// the other's: netback steered each flow onto its queue's I/O
		// channel, consumed inline by that vCPU.
		for q, ep := range []*tcp.Endpoint{ep0, ep1} {
			r.m.ProcessRound(q, 64)
			if got := ep.Stats().BytesToApp; got != 20*1448 {
				t.Errorf("mode %d: vCPU %d round delivered %d bytes of its flow, want %d", mode, q, got, 20*1448)
			}
			if q == 0 {
				if got := ep1.Stats().BytesToApp; got != 0 {
					t.Errorf("mode %d: vCPU 0 round delivered %d bytes of queue-1 flow", mode, got)
				}
			}
		}
		// Shard ownership held: no cross-vCPU lookups.
		ft := r.m.FlowTable()
		for i := 0; i < ft.Shards(); i++ {
			if s := ft.ShardStatsOf(i); s.Steals != 0 {
				t.Errorf("mode %d: shard %d saw %d steals", mode, i, s.Steals)
			}
		}
		if live := r.m.Alloc.Stats().Live; live != 0 {
			t.Errorf("mode %d: %d SKBs live after run", mode, live)
		}
	}
}

func TestEndpointChurnReconnect(t *testing.T) {
	// Connection churn on the paravirtual path: tear an endpoint down
	// while its frames are still mid-drain (in the NIC ring and I/O
	// channel), then reconnect on the same four-tuple.
	r := newMQRig(t, frontend.ModeOptimized, 2)
	port := portOnQueue(1, 2)
	ep := r.addFlow(t, port)
	seq := r.inject(t, port, 1, 10)
	r.pumpAll()
	if got := ep.Stats().BytesToApp; got != 10*1448 {
		t.Fatalf("pre-churn delivery = %d bytes, want %d", got, 10*1448)
	}

	// Frames arrive, then the endpoint unregisters before the softirq
	// round drains them: they must be dropped at demux (NoSocket) and
	// freed, not delivered or leaked.
	r.inject(t, port, seq, 10)
	r.m.UnregisterEndpoint(senderIP, guestIP, port, 44000)
	r.pumpAll()
	if got := ep.Stats().BytesToApp; got != 10*1448 {
		t.Errorf("unregistered endpoint received %d bytes, want %d", got, 10*1448)
	}
	if got := r.m.Stack.Stats().NoSocket; got == 0 {
		t.Error("mid-drain frames for the unregistered flow were not counted as NoSocket")
	}
	if live := r.m.Alloc.Stats().Live; live != 0 {
		t.Fatalf("%d SKBs live after mid-drain unregister", live)
	}

	// Reconnect: a fresh endpoint on the same four-tuple (new
	// connection, same addressing) starts over at sequence 1.
	ep2 := r.addFlow(t, port)
	r.inject(t, port, 1, 10)
	r.pumpAll()
	if got := ep2.Stats().BytesToApp; got != 10*1448 {
		t.Errorf("reconnected endpoint delivered %d bytes, want %d", got, 10*1448)
	}
	if live := r.m.Alloc.Stats().Live; live != 0 {
		t.Errorf("%d SKBs live after reconnect run", live)
	}
}

func TestCrossVCPUChannelDrain(t *testing.T) {
	// A packet netback pushes onto a vCPU's netfront ring while that
	// vCPU is not in softirq (the cross-core event-channel case) must wait
	// there and be consumed at the start of the vCPU's next round. Polling
	// queue 1 outside any round takes exactly that path: netback puts the
	// frame on channel 1, and vCPU 0's round must not deliver it.
	r := newMQRig(t, frontend.ModeBaseline, 2)
	port := portOnQueue(1, 2)
	ep := r.addFlow(t, port)
	r.inject(t, port, 1, 1)

	r.m.Poll(1, 64)
	if got := r.m.NICs()[0].RxQueueLenOn(1); got != 0 {
		t.Fatalf("poll left %d frames on NIC queue 1", got)
	}
	r.m.ProcessRound(0, 64)
	if got := ep.Stats().BytesToApp; got != 0 {
		t.Fatalf("vCPU 0 round delivered the cross-queued packet (%d bytes)", got)
	}
	r.m.ProcessRound(1, 64)
	if got := ep.Stats().BytesToApp; got != 1448 {
		t.Errorf("cross-queued packet delivered %d bytes, want 1448", got)
	}
	if live := r.m.Alloc.Stats().Live; live != 0 {
		t.Errorf("%d SKBs live after cross-vCPU drain", live)
	}
}

func TestSingleQueueChannelAccounting(t *testing.T) {
	// Queues=1 keeps the paper's machine: one channel, every packet
	// consumed inline — one round delivers all 20 host packets.
	r := newMQRig(t, frontend.ModeBaseline, 1)
	ep := r.addFlow(t, 5001)
	r.inject(t, 5001, 1, 20)
	r.m.ProcessRound(0, 64)
	if got := ep.Stats().BytesToApp; got != 20*1448 {
		t.Fatalf("one round delivered %d bytes, want %d", got, 20*1448)
	}
	if got := r.m.Stack.Stats().HostPacketsIn; got != 20 {
		t.Errorf("guest host packets = %d, want 20", got)
	}
}

func TestNetbackChannelFollowsHash(t *testing.T) {
	// 4 queues and I/O channels. Netback puts a hashed flow on the channel
	// of the CPU that owns it, rss.QueueOf of its hash, the NIC's own
	// queue choice; an unhashable frame rides channel 0.
	m, err := New(frontend.Config{
		Params:   cost.XenGuest(),
		NICCount: 1,
		Queues:   4,
		Mode:     frontend.ModeBaseline,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.NICs()[0].OnTransmit = func(nic.Frame) {}
	frame := func(port uint16) []byte {
		return packet.MustBuild(packet.TCPSpec{
			SrcIP: senderIP, DstIP: guestIP, SrcPort: port, DstPort: 44000,
			Seq: 1, Ack: 1, Flags: tcpwire.FlagACK, Window: 65535,
			Payload: make([]byte, 100),
		})
	}
	// channelOf puts f on the wire, runs every core's softirq rounds
	// until the NIC and the netfront rings drain, and reports the I/O
	// channel netback pushed it onto.
	channelOf := func(f []byte) int {
		t.Helper()
		if !m.NICs()[0].ReceiveFromWire(nic.Frame{Data: f}) {
			t.Fatal("NIC ring overflow")
		}
		return deliveringVCPU(m)
	}

	for c := 0; c < 4; c++ {
		if got := channelOf(frame(portOnQueue(c, 4))); got != c {
			t.Errorf("flow owned by CPU %d reached channel %d", c, got)
		}
	}

	// Not IPv4 to the NIC (ether type rewritten to ARP), so it carries no
	// RSS hash; its flow would map to channel 1 if it were hashed.
	unhashable := frame(portOnQueue(1, 4))
	unhashable[12], unhashable[13] = 0x08, 0x06
	if c := channelOf(unhashable); c != 0 {
		t.Errorf("unhashable frame reached channel %d, want 0", c)
	}
	if live := m.Alloc.Stats().Live; live != 0 {
		t.Errorf("%d SKBs live after the run", live)
	}
}
