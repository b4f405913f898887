package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/frontend"
	"repro/internal/tcp"
)

// appBytes sums delivered application bytes over the receiver endpoints,
// retired ones included.
func appBytes(m *frontend.FrontEnd) uint64 { return m.EndpointStats().BytesToApp }

// diffValue returns the first field path under a and b that differs, or
// "". Pointers, maps and funcs compare by identity (a func by its code
// pointer) and slices element by element, so storage kept at length 0
// equals a nil slice.
func diffValue(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffValue(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffValue(path, a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Pointer, reflect.Map, reflect.Func:
		if a.Pointer() != b.Pointer() {
			return path
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
		return ""
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
		return ""
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return path
		}
		return ""
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return path
		}
		return ""
	}
	return path + " (unhandled kind " + a.Kind().String() + ")"
}

// TestRecycledSenderConnMatchesNew: a sender connection that carried a
// lossy SACK stream, once removed and reused by the next open, is field
// for field — its endpoint included — the connection a machine with an
// empty free list builds for the same open.
func TestRecycledSenderConnMatchesNew(t *testing.T) {
	cfg := faultsChurnConfig()
	cfg.ChurnIntervalNs = 0
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	top.sim.RunUntil(40_000_000)
	snd := top.senders[0]
	used := snd.conns[0]
	if st := used.ep.Stats(); st.SegsOut == 0 || st.SACKBlocksIn == 0 || used.rateBps == 0 {
		t.Fatalf("the conn to recycle saw no SACK traffic or pacing: %+v", st)
	}
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	port, rport := used.localPort, uint16(60000)

	snd.RemoveConn(port)
	ep, err := snd.AddStreamConn(src, dst, port, rport)
	if err != nil {
		t.Fatal(err)
	}
	if ep != used.ep {
		t.Fatal("the open did not reuse the removed conn")
	}
	recycled, recycledEP := *used, *used.ep

	snd.RemoveConn(port)
	snd.free = nil
	if _, err := snd.AddStreamConn(src, dst, port, rport); err != nil {
		t.Fatal(err)
	}
	fresh := snd.byPort[port]
	if fresh == used {
		t.Fatal("the open reused a conn with the free list empty")
	}
	recycled.ep = fresh.ep
	if d := diffValue("senderConn", reflect.ValueOf(recycled), reflect.ValueOf(*fresh)); d != "" {
		t.Errorf("recycled %s differs from a new conn's", d)
	}
	if d := diffValue("Endpoint", reflect.ValueOf(recycledEP), reflect.ValueOf(*fresh.ep)); d != "" {
		t.Errorf("recycled conn's %s differs from a new conn's", d)
	}
}

// churnOnlyConfig is connection churn with nothing else that allocates
// as the run goes on: no loss, no reorder, no skew.
func churnOnlyConfig() StreamConfig {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs, cfg.Connections = 4, 80
	cfg.ChurnIntervalNs = 1_000_000
	cfg.WarmupNs = 20_000_000
	return cfg
}

// TestChurnCycleAllocs pins connection recycling: in a churn-only run,
// each extra teardown-and-open cycle costs at most one malloc. Opens
// reuse retired receiver endpoints, removed sender conns and freed
// TIME_WAIT entries with their storage; what is left is first use of a
// flow-table or TIME_WAIT shard. Without recycling a cycle costs about
// seventeen.
func TestChurnCycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 0.6 s churn streams")
	}
	run := func(durationNs uint64) (mallocs, cycles uint64) {
		cfg := churnOnlyConfig()
		cfg.DurationNs = durationNs
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := RunStream(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.FlowsTornDown
	}
	m1, c1 := run(200_000_000)
	m2, c2 := run(600_000_000)
	if c2 <= c1 {
		t.Fatalf("churn did not grow with the window: %d then %d cycles", c1, c2)
	}
	per := (float64(m2) - float64(m1)) / float64(c2-c1)
	t.Logf("%.3f extra mallocs per extra churn cycle (%d cycles, then %d)", per, c1, c2)
	if per > 1 {
		t.Errorf("a churn cycle costs %.3f mallocs, budget 1", per)
	}
}

// TestChurnRecyclesEndpoints: churn reuses receiver endpoints. Every
// release retires its endpoint at once or, once its last timer has
// fired, at a later poll; a retired slot is nil; a live endpoint holds
// exactly one slot; and the bytes retired endpoints delivered still
// count toward the run's total.
func TestChurnRecyclesEndpoints(t *testing.T) {
	cfg := churnOnlyConfig()
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	opened := map[*tcp.Endpoint]bool{}
	opens := 0
	top.gen.onOpen = func(ep *tcp.Endpoint) {
		opened[ep] = true
		opens++
	}
	top.sim.RunUntil(100_000_000)
	tr := top.teardown
	if tr.retired == 0 {
		t.Fatalf("no release retired its endpoint: %d retired, %d kept", tr.retired, tr.kept)
	}
	if len(opened) >= opens {
		t.Errorf("%d opens used %d distinct endpoints: none was reused", opens, len(opened))
	}
	eps := top.machine.Endpoints()
	live := map[*tcp.Endpoint]bool{}
	var bytes uint64
	tombs := 0
	for _, ep := range eps {
		if ep == nil {
			tombs++
			continue
		}
		if live[ep] {
			t.Fatal("an endpoint holds two slots")
		}
		live[ep] = true
		bytes += ep.Stats().BytesToApp
	}
	if want := int(tr.retired+tr.kept) - len(tr.lingering); tombs != want {
		t.Errorf("%d retired slots, want %d releases less %d lingering", tombs, tr.retired+tr.kept, len(tr.lingering))
	}
	if bytes >= appBytes(top.machine) {
		t.Errorf("live endpoints hold %d bytes of %d: the retired total is missing", bytes, appBytes(top.machine))
	}
}
