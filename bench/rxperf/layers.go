package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/ackoff"
	"repro/internal/buf"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ether"
	"repro/internal/ipv4"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/rss"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/tcpwire"
)

// The layer pass times calls into each layer's public functions from the
// benchmark's own code; nothing inside the simulator is instrumented. Its
// inputs take their shape from the workload: payload size, flow count and
// skew, registered population and rounded aggregation factor.

const (
	// siteBudget is the host time each call site is timed for, in batches
	// that double until one takes batchTarget.
	siteBudget  = 200 * time.Millisecond
	batchTarget = 2 * time.Millisecond
	// flowSeqLen is the length of the pregenerated skewed flow sequence
	// that lookups and frame runs cycle through.
	flowSeqLen = 4096
)

// shape is the layer pass's input shape for one workload.
type shape struct {
	system        repro.SystemKind
	opt           repro.OptLevel
	rpc           bool
	sack          bool
	reorderWindow int
	payload       int     // data bytes per frame
	flows         int     // active flows
	skew          float64 // zipf exponent over the active flows (0 = uniform)
	registered    int     // registered flow population, at least flows
	factor        int     // aggregation factor rounded, at least 1
}

// shapeOf derives the layer pass's input shape from a workload's config and
// its untraced result.
func shapeOf(cfg repro.StreamConfig, res repro.StreamResult) shape {
	sh := shape{
		system:        cfg.System,
		opt:           cfg.Opt,
		rpc:           cfg.RPC.Enabled,
		sack:          cfg.SACK,
		reorderWindow: cfg.ReorderWindow,
		payload:       tcp.DefaultConfig().MSS,
		flows:         cfg.Connections,
		skew:          cfg.FlowSkew,
		factor:        max(int(math.Round(res.AggFactor)), 1),
	}
	if sh.flows == 0 {
		sh.flows = cfg.NICs
	}
	if sh.rpc {
		sh.payload = cfg.RPC.MessageBytes
	}
	sh.registered = max(cfg.RegisteredFlows, sh.flows)
	return sh
}

// acksPerFrame is how many ACKs the receiver returns per data frame: one
// request per response on RPC runs, one delayed ACK per DelAckSegments
// full segments on bulk runs.
func (sh shape) acksPerFrame() float64 {
	if sh.rpc {
		return 1
	}
	return 1 / float64(tcp.DefaultConfig().DelAckSegments)
}

// acksPerHostPacket is how many ACKs one host packet of the rounded
// aggregation factor queues under the delayed-ACK policy.
func (sh shape) acksPerHostPacket() int {
	return sh.factor / tcp.DefaultConfig().DelAckSegments
}

// siteRun is one call site's prepared inputs.
type siteRun struct {
	// reset readies the inputs of the next n calls, untimed (nil = none).
	reset func(n int)
	// call makes n timed calls into the layer.
	call func(n int) error
	// maxBatch caps n (0 = no cap); minCalls is the least number of calls
	// the site must make regardless of the time budget.
	maxBatch, minCalls int
}

// layerSite is one timed call into a layer's public API.
type layerSite struct {
	name    string
	prepare func(sh shape, rng *rand.Rand) (siteRun, error)
	// perFrame is the site's calls per simulated frame, from the run's
	// counters (Frames, HostPackets, registered population).
	perFrame func(sh shape, res repro.StreamResult) float64
}

// perFrameOne is a site called once per data frame.
func perFrameOne(shape, repro.StreamResult) float64 { return 1 }

// perHostPacket is a site called once per host packet.
func perHostPacket(_ shape, res repro.StreamResult) float64 {
	return ratio(res.HostPackets, res.Frames)
}

var layerSites = []layerSite{
	{
		// The sender fills every data frame's payload.
		name: "sim.pattern_payload",
		prepare: func(sh shape, rng *rand.Rand) (siteRun, error) {
			b := make([]byte, sh.payload)
			seq := rng.Uint32()
			return siteRun{call: func(n int) error {
				for i := 0; i < n; i++ {
					sim.PatternPayload(seq, b)
					seq += uint32(len(b))
				}
				return nil
			}}, nil
		},
		perFrame: perFrameOne,
	},
	{
		// The sender serializes every data frame.
		name: "packet.build",
		prepare: func(sh shape, rng *rand.Rand) (siteRun, error) {
			spec := dataSpec(flowKeys(1, rng)[0], rng.Uint32(), make([]byte, sh.payload))
			return siteRun{call: func(n int) error {
				for i := 0; i < n; i++ {
					spec.Seq += uint32(sh.payload)
					f, err := packet.Build(spec)
					if err != nil {
						return err
					}
					sinkBytes = f
				}
				return nil
			}}, nil
		},
		perFrame: perFrameOne,
	},
	{
		// The sender dissects every frame the receiver returns: ACKs on
		// bulk runs, requests on RPC runs.
		name: "packet.parse",
		prepare: func(sh shape, rng *rand.Rand) (siteRun, error) {
			var frames [][]byte
			for _, k := range flowKeys(min(sh.flows, 64), rng) {
				spec := ackSpec(k, rng.Uint32(), rng.Uint32())
				if sh.rpc {
					spec.Payload = make([]byte, 64)
				}
				f, err := packet.Build(spec)
				if err != nil {
					return siteRun{}, err
				}
				frames = append(frames, f)
			}
			return siteRun{call: func(n int) error {
				for i := 0; i < n; i++ {
					p, err := packet.Parse(frames[i%len(frames)])
					if err != nil {
						return err
					}
					sinkU32 = p.TCP.Ack
				}
				return nil
			}}, nil
		},
		perFrame: func(sh shape, _ repro.StreamResult) float64 { return sh.acksPerFrame() },
	},
	{
		// The receiving NIC verifies every data frame's TCP checksum.
		name: "tcpwire.verify_checksum",
		prepare: func(sh shape, rng *rand.Rand) (siteRun, error) {
			type seg struct {
				b        []byte
				src, dst ipv4.Addr
			}
			var segs []seg
			for _, k := range flowKeys(16, rng) {
				payload := make([]byte, sh.payload)
				sim.PatternPayload(rng.Uint32(), payload)
				f, err := packet.Build(dataSpec(k, rng.Uint32(), payload))
				if err != nil {
					return siteRun{}, err
				}
				segs = append(segs, seg{f[ether.HeaderLen+ipv4.MinHeaderLen:], k.Src, k.Dst})
			}
			return siteRun{call: func(n int) error {
				for i := 0; i < n; i++ {
					s := segs[i%len(segs)]
					if !tcpwire.VerifyChecksum(s.b, s.src, s.dst) {
						return fmt.Errorf("checksum of a freshly built frame does not verify")
					}
				}
				return nil
			}}, nil
		},
		perFrame: perFrameOne,
	},
	{
		// The optimized path runs every frame through the aggregation
		// queue and engine; one call is one frame.
		name:    "core.process",
		prepare: prepareCoreProcess,
		perFrame: func(sh shape, _ repro.StreamResult) float64 {
			if sh.opt == repro.OptNone {
				return 0
			}
			return 1
		},
	},
	{
		// The stack demuxes every host packet.
		name: "netstack.lookup",
		prepare: func(sh shape, rng *rand.Rand) (siteRun, error) {
			table, err := netstack.NewFlowTable(0)
			if err != nil {
				return siteRun{}, err
			}
			ep, err := newEndpoint(sh)
			if err != nil {
				return siteRun{}, err
			}
			keys := flowKeys(sh.registered, rng)
			for _, k := range keys {
				if err := table.Insert(k, ep); err != nil {
					return siteRun{}, err
				}
			}
			hashes := make([]uint32, sh.flows)
			for i := range hashes {
				k := keys[i]
				hashes[i] = rss.HashTCP4(k.Src, k.Dst, k.SrcPort, k.DstPort)
			}
			seq := flowSequence(sh, rng)
			pos := 0
			return siteRun{call: func(n int) error {
				for i := 0; i < n; i++ {
					f := seq[pos]
					pos = (pos + 1) % len(seq)
					if table.Lookup(keys[f], hashes[f], sh.factor, sh.factor > 1) == nil {
						return fmt.Errorf("registered flow %d not found", f)
					}
				}
				return nil
			}}, nil
		},
		perFrame: perHostPacket,
	},
	{
		// Set-up registers the population and churn registers each
		// replacement flow. Fresh tables are filled to the registered
		// population, so the cost includes growing to it.
		name: "netstack.insert",
		prepare: func(sh shape, rng *rand.Rand) (siteRun, error) {
			ep, err := newEndpoint(sh)
			if err != nil {
				return siteRun{}, err
			}
			keys := flowKeys(sh.registered, rng)
			var tables []*netstack.FlowTable
			var table *netstack.FlowTable
			next := len(keys)
			return siteRun{
				reset: func(n int) {
					tables = tables[:0]
					for need := n - (len(keys) - next); need > 0; need -= len(keys) {
						t, _ := netstack.NewFlowTable(0) // the default shard count is valid
						tables = append(tables, t)
					}
				},
				call: func(n int) error {
					for i := 0; i < n; i++ {
						if next == len(keys) {
							table, tables = tables[0], tables[1:]
							next = 0
						}
						if err := table.Insert(keys[next], ep); err != nil {
							return err
						}
						next++
					}
					return nil
				},
				minCalls: sh.registered,
			}, nil
		},
		perFrame: func(sh shape, res repro.StreamResult) float64 {
			return ratio(uint64(sh.registered)+res.FlowsTornDown, res.Frames)
		},
	},
	{
		// The receiving endpoint processes every host packet: in-order
		// data of factor-many payload runs.
		name: "tcp.input",
		prepare: func(sh shape, rng *rand.Rand) (siteRun, error) {
			ep, err := newEndpoint(sh)
			if err != nil {
				return siteRun{}, err
			}
			payload := make([]byte, sh.payload)
			sim.PatternPayload(rng.Uint32(), payload)
			runs := make([][]byte, sh.factor)
			acks := make([]uint32, sh.factor)
			for i := range runs {
				runs[i] = payload
				acks[i] = ep.SndNxt()
			}
			hdr := tcpwire.Header{
				Ack: ep.SndNxt(), DataOff: tcpwire.TimestampHeaderLen,
				Flags: tcpwire.FlagACK | tcpwire.FlagPSH, Window: 0xffff,
				HasTimestamp: true, TimestampOnly: true,
			}
			return siteRun{call: func(n int) error {
				for i := 0; i < n; i++ {
					hdr.Seq = ep.RcvNxt()
					hdr.TSVal++
					ep.Input(tcp.Segment{
						Hdr: hdr, Payloads: runs, FragAcks: acks,
						NetPackets: sh.factor, Aggregated: sh.factor > 1,
					})
					if want := hdr.Seq + uint32(sh.factor*sh.payload); ep.RcvNxt() != want {
						return fmt.Errorf("in-order segment left RcvNxt at %d, want %d", ep.RcvNxt(), want)
					}
				}
				return nil
			}}, nil
		},
		perFrame: perHostPacket,
	},
	{
		// The driver expands each ACK template: one per host packet that
		// queues at least two ACKs under ACK offload.
		name: "ackoff.expand",
		prepare: func(sh shape, rng *rand.Rand) (siteRun, error) {
			template, err := packet.Build(ackSpec(flowKeys(1, rng)[0], rng.Uint32(), rng.Uint32()))
			if err != nil {
				return siteRun{}, err
			}
			extras := make([]uint32, max(sh.acksPerHostPacket()-1, 0))
			for i := range extras {
				extras[i] = uint32(i+1) * 2 * uint32(sh.payload)
			}
			return siteRun{call: func(n int) error {
				for i := 0; i < n; i++ {
					out, err := ackoff.Expand(template, ether.HeaderLen, extras)
					if err != nil {
						return err
					}
					sinkFrames = out
				}
				return nil
			}}, nil
		},
		perFrame: func(sh shape, res repro.StreamResult) float64 {
			if sh.opt != repro.OptFull || sh.acksPerHostPacket() < 2 {
				return 0
			}
			return ratio(res.HostPackets, res.Frames)
		},
	},
}

// Sinks keep the compiler from discarding the results of timed calls.
var (
	sinkBytes  []byte
	sinkFrames [][]byte
	sinkU32    uint32
)

// prepareCoreProcess readies the aggregation path: each batch is frames in
// runs of factor in-order frames per flow, fed through the raw queue 64 at a
// time (the softirq budget) to a sink that frees the SKBs. Frames are copied
// from one template per flow and given the flow's next sequence number, the
// checksum updated incrementally, so the untimed preparation stays cheap.
func prepareCoreProcess(sh shape, rng *rand.Rand) (siteRun, error) {
	const budget, maxBatch = 64, 8192
	opts := core.DefaultOptions()
	opts.Aggregation.ReorderWindow = sh.reorderWindow
	opts.AckOffload = sh.opt == repro.OptFull
	var meter cycles.Meter
	params := costParams(sh.system)
	alloc := buf.NewAllocator(&meter, &params)
	delivered := 0
	rp, err := core.New(opts, &meter, &params, alloc, func(s *buf.SKB) {
		delivered += s.NetPackets
		alloc.Free(s)
	})
	if err != nil {
		return siteRun{}, err
	}
	keys := flowKeys(sh.flows, rng)
	templates := make([][]byte, len(keys))
	hashes := make([]uint32, len(keys))
	seqs := make([]uint32, len(keys))
	for i, k := range keys {
		payload := make([]byte, sh.payload)
		sim.PatternPayload(rng.Uint32(), payload)
		seqs[i] = rng.Uint32()
		if templates[i], err = packet.Build(dataSpec(k, seqs[i], payload)); err != nil {
			return siteRun{}, err
		}
		hashes[i] = rss.HashTCP4(k.Src, k.Dst, k.SrcPort, k.DstPort)
	}
	order := flowSequence(sh, rng)
	pos := 0
	frames := make([]nic.Frame, maxBatch)
	for i := range frames {
		frames[i].Data = make([]byte, len(templates[0]))
		frames[i].RxCsumOK = true
	}
	const l4 = ether.HeaderLen + ipv4.MinHeaderLen
	return siteRun{
		reset: func(n int) {
			for i := 0; i < n; {
				f := order[pos]
				pos = (pos + 1) % len(order)
				for j := 0; j < sh.factor && i < n; j, i = j+1, i+1 {
					copy(frames[i].Data, templates[f])
					seg := frames[i].Data[l4:]
					seqs[f] += uint32(sh.payload)
					old := binary.BigEndian.Uint32(seg[tcpwire.OffSeq:])
					binary.BigEndian.PutUint32(seg[tcpwire.OffSeq:], seqs[f])
					cs := binary.BigEndian.Uint16(seg[tcpwire.OffChecksum:])
					binary.BigEndian.PutUint16(seg[tcpwire.OffChecksum:], checksum.Update32(cs, old, seqs[f]))
					frames[i].RSSHash = hashes[f]
				}
			}
		},
		call: func(n int) error {
			delivered = 0
			for i := 0; i < n; i += budget {
				for _, f := range frames[i:min(i+budget, n)] {
					if !rp.EnqueueRaw(f) {
						return fmt.Errorf("aggregation queue full")
					}
				}
				rp.Process(budget)
			}
			if delivered != n {
				return fmt.Errorf("delivered %d of %d frames", delivered, n)
			}
			return nil
		},
		maxBatch: maxBatch,
	}, nil
}

// costParams returns the machine cost profile the simulator uses for sys.
func costParams(sys repro.SystemKind) cost.Params {
	switch sys {
	case repro.SystemNativeSMP:
		return cost.NativeSMP()
	case repro.SystemXen:
		return cost.XenGuest()
	}
	return cost.NativeUP()
}

// newEndpoint builds a receiving endpoint configured as the workload's
// connections are; its ACKs are freed as soon as they are sent.
func newEndpoint(sh shape) (*tcp.Endpoint, error) {
	var meter cycles.Meter
	params := costParams(sh.system)
	alloc := buf.NewAllocator(&meter, &params)
	cfg := tcp.DefaultConfig()
	cfg.AckOffload = sh.opt == repro.OptFull
	cfg.SACK = sh.sack
	var now uint64
	ep, err := tcp.New(cfg, &meter, &params, alloc, func() uint64 { now += 1000; return now })
	if err != nil {
		return nil, err
	}
	ep.Output = alloc.Free
	return ep, nil
}

// flowKeys returns n distinct flow keys in the stack's orientation (source
// = remote sender, destination = local receiver).
func flowKeys(n int, rng *rand.Rand) []netstack.FlowKey {
	keys := make([]netstack.FlowKey, n)
	for i := range keys {
		keys[i] = netstack.FlowKey{
			Src:     ipv4.Addr{10, byte(i >> 16), byte(i >> 8), byte(i)},
			Dst:     ipv4.Addr{192, 168, 0, 1},
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: 5001,
		}
	}
	return keys
}

// flowSequence returns the order in which active flows send, drawn with
// the workload's zipf skew (uniform when it has none).
func flowSequence(sh shape, rng *rand.Rand) []int {
	seq := make([]int, flowSeqLen)
	z := rand.NewZipf(rng, sh.skew, 1, uint64(sh.flows-1))
	for i := range seq {
		if z != nil {
			seq[i] = int(z.Uint64())
		} else {
			seq[i] = rng.Intn(sh.flows)
		}
	}
	return seq
}

// dataSpec describes a data frame of flow k carrying payload at seq.
func dataSpec(k netstack.FlowKey, seq uint32, payload []byte) packet.TCPSpec {
	return packet.TCPSpec{
		SrcIP: k.Src, DstIP: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort,
		Seq: seq, Ack: 1, Flags: tcpwire.FlagACK | tcpwire.FlagPSH, Window: 0xffff,
		HasTS: true, TSVal: 1, TSEcr: 1, Payload: payload,
	}
}

// ackSpec describes the pure ACK the receiver returns on flow k.
func ackSpec(k netstack.FlowKey, seq, ack uint32) packet.TCPSpec {
	return packet.TCPSpec{
		SrcIP: k.Dst, DstIP: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort,
		Seq: seq, Ack: ack, Flags: tcpwire.FlagACK, Window: 0xffff,
		HasTS: true, TSVal: 1, TSEcr: 1,
	}
}

// ratio is a/b (0 when b is 0).
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// siteStats is one call site's host cost per call.
type siteStats struct {
	ns, allocs, bytes float64
}

// timeSite times one call site in doubling batches until it has spent
// budget of host time and made minCalls calls (one batch at least),
// recording a span per batch under parent.
func timeSite(s layerSite, sh shape, rng *rand.Rand, budget time.Duration, log *spanLog, parent int) (siteStats, error) {
	run, err := s.prepare(sh, rng)
	if err != nil {
		return siteStats{}, err
	}
	var busyNs int64
	var calls int
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	for n := 1; calls == 0 || busyNs < budget.Nanoseconds() || calls < run.minCalls; {
		if run.reset != nil {
			run.reset(n)
		}
		runtime.ReadMemStats(&before)
		id := log.begin(parent, "batch", 0)
		err := run.call(n)
		log.end(id)
		runtime.ReadMemStats(&after)
		if err != nil {
			return siteStats{}, err
		}
		d := log.duration(id)
		busyNs += d
		calls += n
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		if d < batchTarget.Nanoseconds() && (run.maxBatch == 0 || 2*n <= run.maxBatch) {
			n *= 2
		}
	}
	return siteStats{
		ns:     float64(busyNs) / float64(calls),
		allocs: float64(mallocs) / float64(calls),
		bytes:  float64(bytes) / float64(calls),
	}, nil
}

// runLayerPass times every call site on sh and returns the layer.* metrics.
// hostFramesPerS is the untraced run's frame rate, the base covered_pct is
// measured against.
func runLayerPass(sh shape, res repro.StreamResult, hostFramesPerS float64, o options,
	log *spanLog, parent int) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(int64(o.seed)))
	m := map[string]float64{}
	var nsPerFrame float64
	for _, s := range layerSites {
		id := log.begin(parent, s.name, 0)
		st, err := timeSite(s, sh, rng, o.scaled(siteBudget), log, id)
		log.end(id)
		if err != nil {
			return m, fmt.Errorf("%s: %w", s.name, err)
		}
		perFrame := s.perFrame(sh, res)
		p := "layer." + s.name + "."
		m[p+"ns_per_call"] = st.ns
		m[p+"allocs_per_call"] = st.allocs
		m[p+"bytes_per_call"] = st.bytes
		m[p+"calls_per_frame"] = perFrame
		m[p+"ns_per_frame"] = st.ns * perFrame
		nsPerFrame += st.ns * perFrame
	}
	if hostFramesPerS > 0 {
		m["layer.covered_pct"] = 100 * nsPerFrame / (1e9 / hostFramesPerS)
	}
	return m, nil
}
