package tcp

import (
	"reflect"
	"testing"

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
