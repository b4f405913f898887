package tcp

import (
	"reflect"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/tcpwire"
	"repro/internal/telemetry"
)

// sameValue reports the first field path under a and b that differs, or
// "" when none does. Pointers, maps and funcs compare by identity (a func
// by its code pointer), slices element by element, so a reset endpoint's
// kept storage at length 0 equals a fresh endpoint's nil slice.
func sameValue(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := sameValue(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameValue(path, a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Pointer, reflect.Map, reflect.Func:
		if a.Pointer() != b.Pointer() {
			return path
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return path
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return path
		}
	case reflect.String:
		if a.String() != b.String() {
			return path
		}
	default:
		return path + " (unhandled kind " + a.Kind().String() + ")"
	}
	return ""
}

// TestResetMatchesNew: an endpoint that has been through loss, SACK,
// out-of-order data, an RTO and both FINs, with every hook wired, is
// after Reset field for field the endpoint New builds from the same
// config, with its four slices at length 0 on their old storage. A field
// Reset forgot would carry the old connection's state into the next one.
func TestResetMatchesNew(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.SACK = true })
	ep := env.ep
	ep.AppSink = func([]byte) {}
	ep.OnRetransmit = func([]byte) {}
	ep.SetRecoveryRecorder(&telemetry.Collector{})
	ep.SetLatencyRecorder(&telemetry.Collector{}, func() uint64 { return env.now })

	// Receive half: in-order data, then a hole that queues out-of-order
	// data and SACK blocks, then the peer's FIN (left beyond the hole,
	// so the out-of-order queue is still full at Reset).
	ep.Input(dataSeg(1, 1, mss(1448)))
	ep.Input(dataSeg(2897, 1, mss(1448)))
	fin := dataSeg(4345, 1, mss(1448))
	fin.Hdr.Flags |= tcpwire.FlagFIN
	ep.Input(fin)
	ep.Input(dataSeg(1449, 1, mss(1448)))

	// Send half: a window in flight, SACK-bearing duplicate ACKs into
	// fast retransmit, an RTO, then our own FIN.
	ep.SetAppLimit(^uint64(0))
	ep.sndWnd = 1 << 20
	ep.cwnd = 20 * ep.cfg.MSS
	pump(t, env, 10)
	una := ep.SndUna()
	for i := 0; i < 3; i++ {
		ep.Input(sackAck(una, tcpwire.SACKBlock{Start: una + 1448, End: una + uint32(2+i)*1448}))
	}
	env.now += 10_000_000_000
	ep.OnTimeout(env.now)
	ep.AppClose()
	drainData(env)
	ep.Input(dataSeg(1, 1, mss(1448))) // old duplicate: dup-ACK queued state
	ep.Input(dataSeg(7241, 1, mss(1448)))

	st := ep.Stats()
	if st.OOOSegs == 0 || st.SACKBlocksOut == 0 || st.SACKBlocksIn == 0 ||
		st.FastRetransmits == 0 || st.RTOs == 0 || st.FinsIn == 0 || st.FinsOut == 0 {
		t.Fatalf("workout missed a path: %+v", st)
	}
	if len(ep.ooo) == 0 || cap(ep.rtx) == 0 || cap(ep.pendingAcks) == 0 || cap(ep.sackBlocks) == 0 {
		t.Fatalf("workout left a slice without storage: ooo %d, rtx %d, acks %d, sack %d",
			len(ep.ooo), cap(ep.rtx), cap(ep.pendingAcks), cap(ep.sackBlocks))
	}
	rtx0, ooo0 := &ep.rtx[:1][0], &ep.ooo[:1][0]
	acks0, sack0 := &ep.pendingAcks[:1][0], &ep.sackBlocks[:1][0]

	cfg := DefaultConfig()
	cfg.LocalPort, cfg.RemotePort = 44001, 5002
	cfg.AckOffload = true
	clock := func() uint64 { return env.now }

	bad := cfg
	bad.MSS = 0
	before := *ep
	if err := ep.Reset(bad, env.meter, &env.p, env.alloc, clock); err == nil {
		t.Fatal("Reset accepted MSS 0")
	}
	if d := sameValue("Endpoint", reflect.ValueOf(*ep), reflect.ValueOf(before)); d != "" {
		t.Fatalf("failed Reset changed %s", d)
	}

	if err := ep.Reset(cfg, env.meter, &env.p, env.alloc, clock); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, env.meter, &env.p, env.alloc, clock)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameValue("Endpoint", reflect.ValueOf(*ep), reflect.ValueOf(*fresh)); d != "" {
		t.Errorf("after Reset, %s differs from a new endpoint", d)
	}
	if &ep.rtx[:1][0] != rtx0 || &ep.ooo[:1][0] != ooo0 ||
		&ep.pendingAcks[:1][0] != acks0 || &ep.sackBlocks[:1][0] != sack0 {
		t.Error("Reset dropped a slice's storage")
	}
}

// TestStatsAddCoversEveryCounter: Add sums every counter and keeps the
// larger OOOPeak. A counter added to Stats but not to Add fails here.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.OOOPeak, b.OOOPeak = 7, 3
	got := reflect.ValueOf(a.Add(b))
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		want := va.Field(i).Uint() + vb.Field(i).Uint()
		if name == "OOOPeak" {
			want = 7
		}
		if g := got.Field(i).Uint(); g != want {
			t.Errorf("Add: %s = %d, want %d", name, g, want)
		}
	}
}

// TestResetReplayAllocFree: an endpoint that has been through loss,
// reordering and SACK on both halves is Reset, then replays the same input
// without allocating. Every per-connection container keeps the storage
// its first growth gave it, and frames and SKBs come back from the
// allocator's pool and free list.
func TestResetReplayAllocFree(t *testing.T) {
	var m cycles.Meter
	p := cost.NativeUP()
	alloc := buf.NewAllocator(&m, &p)
	alloc.SetPool(buf.NewPool())
	cfg := DefaultConfig()
	cfg.LocalIP, cfg.RemoteIP = ipv4.Addr{10, 0, 0, 2}, ipv4.Addr{10, 0, 0, 1}
	cfg.LocalPort, cfg.RemotePort = 44000, 5001
	cfg.SACK, cfg.AckOffload = true, true
	cfg.Source = mixSource
	var now uint64
	clock := func() uint64 { return now }

	// Receive half, in frames of one MSS from sequence 1: an aggregate of
	// frames 0-3, frame 4 lost behind 5 and 6, frames 7 and 8 swapped,
	// frame 4's retransmission, then an aggregate of frames 9-18.
	payload := make([]byte, 1448)
	frames := func(first, n int) Segment {
		s := dataSeg(1+uint32(first)*1448, 1, payload)
		s.Payloads, s.FragAcks, s.NetPackets = nil, nil, n
		for i := 0; i < n; i++ {
			s.Payloads = append(s.Payloads, payload)
			s.FragAcks = append(s.FragAcks, 1)
		}
		return s
	}
	input := []Segment{frames(0, 4), frames(5, 1), frames(6, 1), frames(8, 1), frames(7, 1), frames(4, 1), frames(9, 10)}

	// Send half: ten segments in flight, the first lost; three duplicate
	// ACKs whose SACK blocks cover the rest trigger its fast
	// retransmission, and a cumulative ACK covers everything.
	var dupAcks []Segment
	for i := 2; i <= 4; i++ {
		dupAcks = append(dupAcks, sackAck(1, tcpwire.SACKBlock{Start: 1 + 1448, End: 1 + uint32(i)*1448}))
	}
	fullAck := ackSeg(1 + 10*1448)

	ep := new(Endpoint)
	output, retransmit := alloc.Free, alloc.Release
	replay := func() {
		now = 1_000_000
		if err := ep.Reset(cfg, &m, &p, alloc, clock); err != nil {
			t.Fatal(err)
		}
		ep.Output, ep.OnRetransmit = output, retransmit
		for _, s := range input {
			ep.Input(s)
		}
		ep.SetAppLimit(10 * 1448)
		for f := ep.NextDataFrame(0); f != nil; f = ep.NextDataFrame(0) {
			alloc.Release(f)
		}
		now += 100_000
		for _, s := range dupAcks {
			ep.Input(s)
		}
		ep.Input(fullAck)
	}

	replay()
	st := ep.Stats()
	if st.OOOSegs == 0 || st.SACKBlocksOut == 0 || st.AckTemplatesOut == 0 ||
		st.SACKBlocksIn == 0 || st.FastRetransmits == 0 {
		t.Fatalf("the input missed a path: %+v", st)
	}
	if len(ep.ooo) != 0 || ep.SndUna() != ep.SndNxt() {
		t.Fatalf("the input leaves %d segments queued and %d bytes unacknowledged",
			len(ep.ooo), ep.SndNxt()-ep.SndUna())
	}
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Errorf("replaying after Reset allocates %.1f times", allocs)
	}

	// A new endpoint pays each container's first growth once: the
	// endpoint, its retransmission, out-of-order, pending-ACK and
	// SACK-block slices.
	fresh := testing.AllocsPerRun(20, func() {
		ep = new(Endpoint)
		replay()
	})
	if fresh != 5 {
		t.Errorf("a new endpoint's first pass allocates %.1f times, want 5", fresh)
	}
}
