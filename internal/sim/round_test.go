package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/frontend"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
)

// newRoundMachine builds an optimized one-NIC, one-queue machine — native
// UP or Xen — with the paper's aggregation options, returning its front
// end, whose Poll is the softirq round.
func newRoundMachine(xen bool) (*frontend.FrontEnd, error) {
	cfg := frontend.Config{
		Params:      cost.NativeUP(),
		NICCount:    1,
		Mode:        frontend.ModeOptimized,
		Aggregation: core.DefaultOptions(),
	}
	if xen {
		cfg.Params = cost.XenGuest()
	}
	return newMachine(cfg, xen)
}

// BenchmarkProcessRound measures one optimized softirq round on a one-NIC
// machine, native and Xen: the driver drains a ring pre-filled with a full
// budget of in-sequence frames of one flow, aggregation coalesces them and
// the stack (on Xen after the bridge, netback, grant copy and netfront)
// delivers them to the endpoint, whose ACK templates go back out through
// the driver. Refilling the ring is not timed.
func BenchmarkProcessRound(b *testing.B) {
	senderIP, localIP := ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 99}
	for _, sys := range []struct {
		name string
		xen  bool
	}{{"native", false}, {"xen", true}} {
		b.Run(sys.name, func(b *testing.B) {
			m, err := newRoundMachine(sys.xen)
			if err != nil {
				b.Fatal(err)
			}
			tcfg := tcp.DefaultConfig()
			tcfg.LocalIP, tcfg.RemoteIP = localIP, senderIP
			tcfg.LocalPort, tcfg.RemotePort = 44000, 5001
			tcfg.AckOffload = true
			ep, err := tcp.New(tcfg, &m.Meter, &m.Params, m.Alloc, func() uint64 { return 0 })
			if err != nil {
				b.Fatal(err)
			}
			ep.AppSink = func([]byte) {}
			if err := m.RegisterEndpoint(ep, senderIP, localIP, 5001, 44000); err != nil {
				b.Fatal(err)
			}
			const budget = 64
			payload := make([]byte, 1448)
			seq := uint32(1)
			var ipid uint16
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < budget; j++ {
					ipid++
					f := packet.MustBuild(packet.TCPSpec{
						SrcIP: senderIP, DstIP: localIP, SrcPort: 5001, DstPort: 44000,
						Seq: seq, Ack: 1, Flags: tcpwire.FlagACK | tcpwire.FlagPSH,
						Window: 65535, HasTS: true, TSVal: 7, TSEcr: 3,
						Payload: payload, IPID: ipid,
					})
					if !m.NICs()[0].ReceiveFromWire(nic.Frame{Data: f}) {
						b.Fatal("NIC ring overflow")
					}
					seq += uint32(len(payload))
				}
				b.StartTimer()
				if n, _ := m.Poll(0, budget); n != budget {
					b.Fatalf("round consumed %d frames, want %d", n, budget)
				}
			}
			if got, want := ep.Stats().BytesToApp, uint64(b.N)*budget*uint64(len(payload)); got != want {
				b.Fatalf("delivered %d bytes in order, want %d", got, want)
			}
		})
	}
}
