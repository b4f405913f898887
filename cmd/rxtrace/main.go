// Command rxtrace narrates the receive path frame by frame: it feeds a
// small synthetic burst through the Receive Aggregation engine and prints
// what happened to every frame — a teaching and debugging view of the §3.1
// rules: which frames coalesced, which passed through and why, and what
// the stack received.
//
// The narration is built on the telemetry span recorder, so the burst
// exports to the Chrome trace viewer (chrome://tracing, Perfetto):
//
//	rxtrace -chrome agg.json
//
// For the timeline of a real run, use rxbench -trace.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/aggregate"
	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/tcpwire"
	"repro/internal/telemetry"
)

var (
	limit  = flag.Int("limit", 5, "aggregation limit of the synthetic burst")
	chrome = flag.String("chrome", "", "write the burst's timeline as Chrome trace JSON to this file")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rxtrace: ")
	flag.Parse()

	spans := traceBurst()
	if *chrome == "" {
		return
	}
	f, err := os.Create(*chrome)
	if err != nil {
		log.Fatal(err)
	}
	if err := telemetry.WriteChromeTrace(f, spans); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d spans to %s (load in chrome://tracing or Perfetto)\n",
		len(spans), *chrome)
}

// traceBurst is the classic synthetic §3.1 narration, now recording a
// span per frame and per host packet so the burst exports as a timeline:
// track "frame" shows what was fed, track "host" what the stack received.
func traceBurst() []telemetry.Span {
	var meter cycles.Meter
	params := cost.NativeUP()
	alloc := buf.NewAllocator(&meter, &params)
	eng, err := aggregate.New(aggregate.Config{Limit: *limit},
		&meter, &params, alloc)
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic clock stands in for simulated time: one MSS frame is
	// ~12µs on a Gigabit wire, so each fed frame occupies a 12µs slot.
	const frameSlotNs = 12_000
	var rec telemetry.SpanRecorder
	var now uint64

	hostPackets := 0
	eng.Out = func(s *buf.SKB) {
		hostPackets++
		kind := "passthrough"
		name := "passthrough"
		if s.Aggregated {
			kind = fmt.Sprintf("AGGREGATE of %d", s.NetPackets)
			name = fmt.Sprintf("aggregate[%d]", s.NetPackets)
		}
		fmt.Printf("  -> host packet %d: %s (frag acks %v)\n",
			hostPackets, kind, s.FragAcks())
		rec.Record("host", name, now, frameSlotNs/2)
		alloc.Free(s)
	}

	src := ipv4.Addr{10, 0, 0, 1}
	dst := ipv4.Addr{10, 0, 0, 2}
	seq := uint32(1)
	mk := func(mutate func(*packet.TCPSpec)) nic.Frame {
		spec := packet.TCPSpec{
			SrcIP: src, DstIP: dst, SrcPort: 5001, DstPort: 44000,
			Seq: seq, Ack: 1000, Flags: tcpwire.FlagACK,
			Window: 65535, HasTS: true, TSVal: 1,
			Payload: make([]byte, 1448),
		}
		if mutate != nil {
			mutate(&spec)
		}
		f := nic.Frame{Data: packet.MustBuild(spec), RxCsumOK: true}
		seq += uint32(len(spec.Payload))
		return f
	}

	feed := func(desc, short string, f nic.Frame) {
		fmt.Printf("frame: %s\n", desc)
		rec.Record("frame", short, now, frameSlotNs)
		eng.Input(f)
		now += frameSlotNs
	}

	fmt.Printf("aggregation limit = %d\n\n", *limit)
	for i := 0; i < *limit; i++ {
		feed(fmt.Sprintf("in-sequence MSS segment (seq %d)", seq), "mss", mk(nil))
	}
	feed("in-sequence segment starting a new aggregate", "mss", mk(nil))
	feed("pure ACK (never aggregated; flushes pending first)", "ack",
		mk(func(s *packet.TCPSpec) { s.Payload = nil }))
	feed("segment with SACK option (other options pass through)", "sack",
		mk(func(s *packet.TCPSpec) {
			s.RawTCPOptions = []byte{tcpwire.OptSACKPerm, 2, tcpwire.OptNOP, tcpwire.OptNOP}
		}))
	feed("out-of-sequence segment (gap: starts fresh)", "ooo",
		mk(func(s *packet.TCPSpec) { s.Seq += 50_000 }))
	seq += 50_000
	feed("in-sequence continuation", "mss", mk(nil))
	fmt.Println("\nqueue idle: flushing partial aggregates (work conservation)")
	eng.FlushAll()

	st := eng.Stats()
	fmt.Printf("\nengine stats: frames=%d host=%d coalesced=%d "+
		"flush{limit=%d mismatch=%d idle=%d} rejects{zero=%d opts=%d}\n",
		st.FramesIn, st.HostOut, st.Coalesced,
		st.FlushLimit, st.FlushMismatch, st.FlushIdle,
		st.RejZeroLen, st.RejOtherOptions)
	fmt.Printf("aggregation cycles charged: %d\n", meter.Get(cycles.Aggr))
	return rec.Drain()
}
