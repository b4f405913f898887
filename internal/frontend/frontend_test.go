package frontend

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/ipv4"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/rss"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
)

var (
	senderIP = ipv4.Addr{10, 0, 0, 1}
	localIP  = ipv4.Addr{10, 0, 0, 99}
)

const localPort = 44000

// TestStaticRSSOneOwner drives a 4-queue native front end directly: every
// flow's frames land on queue rss.QueueOf(hash, 4), the CPU polling that
// queue owns the flow's demux shard, so no delivery counts as a steal.
func TestStaticRSSOneOwner(t *testing.T) {
	fe := &FrontEnd{}
	cfg := Config{Params: cost.NativeSMP(), NICCount: 1, Queues: 4}
	if err := fe.Init(cfg, func(q int) func(*buf.SKB) { return fe.Stack.InputOn(q) }); err != nil {
		t.Fatal(err)
	}
	n := fe.NICs()[0]
	n.OnTransmit = func(nic.Frame) {} // ACKs leave the machine
	for port := uint16(5001); port <= 5016; port++ {
		k := netstack.FlowKey{Src: senderIP, Dst: localIP, SrcPort: port, DstPort: localPort}
		tcfg := tcp.DefaultConfig()
		tcfg.LocalIP, tcfg.RemoteIP = k.Dst, k.Src
		tcfg.LocalPort, tcfg.RemotePort = k.DstPort, k.SrcPort
		if _, _, err := fe.OpenEndpoint(tcfg, func() uint64 { return 0 }, k.Src, k.Dst, k.SrcPort, k.DstPort); err != nil {
			t.Fatal(err)
		}
		f := packet.MustBuild(packet.TCPSpec{
			SrcIP: k.Src, DstIP: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort,
			Seq: 1, Ack: 1, Flags: tcpwire.FlagACK | tcpwire.FlagPSH,
			Window: 65535, Payload: make([]byte, 100),
		})
		if !n.ReceiveFromWire(nic.Frame{Data: f}) {
			t.Fatal("NIC ring overflow")
		}
		want := rss.QueueOf(k.Hash(), 4)
		for q := 0; q < n.RxQueues(); q++ {
			if got := n.RxQueueLenOn(q); (q == want) != (got == 1) {
				t.Errorf("flow %v: queue %d holds %d frames, want its frame on queue %d", k, q, got, want)
			}
			fe.Poll(q, 64)
		}
	}
	if got := fe.HostPacketsIn(); got != 16 {
		t.Errorf("stack received %d host packets, want 16", got)
	}
	table := fe.FlowTable()
	for i := 0; i < table.Shards(); i++ {
		if s := table.ShardStatsOf(i); s.Steals != 0 || s.Misses != 0 {
			t.Fatalf("shard %d counted %d steals and %d misses", i, s.Steals, s.Misses)
		}
	}
	// Accounting is on: a delivery from any other CPU is a steal.
	k := netstack.FlowKey{Src: senderIP, Dst: localIP, SrcPort: 5001, DstPort: localPort}
	table.LookupOn((rss.QueueOf(k.Hash(), 4)+1)%4, k, k.Hash(), 1, false)
	if got := table.ShardStatsOf(table.ShardOf(k)).Steals; got != 1 {
		t.Errorf("a delivery from a foreign CPU counted %d steals, want 1", got)
	}
}
