package sim

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/netstack"
	"repro/internal/tcp"
)

// TestRegisteredEndpointLimit: a stream config that could hold more
// endpoints registered at once than one flow table binds
// (netstack.MaxEndpoints) is refused before anything runs, and the same
// config one connection smaller, exactly at the limit, is accepted. The
// count takes every connection, the idle population's one shared
// placeholder, and under churn the torn-down flows still draining or
// lingering: 78 ms of them (60 ms of FIN drain, 8 ms of TIME_WAIT and up
// to two 5 ms sweeps), 40 at a 2 ms interval, but never more than the
// churn port pool's 10,536 pairs, however short the interval.
func TestRegisteredEndpointLimit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra int // endpoints beyond Connections
		set   func(*StreamConfig)
	}{
		{"connections", 0, func(*StreamConfig) {}},
		{"idle population", 1, func(c *StreamConfig) { c.RegisteredFlows = 1_000_000 }},
		{"2 ms churn", 40, func(c *StreamConfig) { c.ChurnIntervalNs = 2_000_000 }},
		{"100 us churn", 781, func(c *StreamConfig) { c.ChurnIntervalNs = 100_000 }},
		{"500 ns churn", churnPortPairs, func(c *StreamConfig) { c.ChurnIntervalNs = 500 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultStreamConfig(SystemNativeUP, OptNone)
			cfg.NICs = 8
			cfg.Connections = netstack.MaxEndpoints - tc.extra
			tc.set(&cfg)
			if got := registeredEndpoints(&cfg); got != netstack.MaxEndpoints {
				t.Fatalf("registeredEndpoints = %d, want %d", got, netstack.MaxEndpoints)
			}
			at := cfg
			if _, err := newTopology(&at); err != nil {
				t.Fatalf("config at the limit refused: %v", err)
			}
			cfg.Connections++
			_, err := RunStream(cfg)
			if err == nil || !strings.Contains(err.Error(), "registered at once") {
				t.Fatalf("config one endpoint over the limit: err = %v", err)
			}
		})
	}
}

// TestOpenConnectionsAllocateFixedRecords: opening a link's connections
// allocates the same number of times whatever their count. The receiver
// machine's endpoints come from one slab and the sender machine's records
// from another, and the lists and port map that index them are sized
// before the first open. The demux table is warmed with the keys first:
// its shards grow with the keys, not with the records.
func TestOpenConnectionsAllocateFixedRecords(t *testing.T) {
	src, dst := ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}
	opens := func(n int) uint64 {
		cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
		cfg.NICs, cfg.Connections = 1, n
		top, err := newTopology(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := top.machine
		placeholder, err := tcp.New(tcp.DefaultConfig(), &m.Meter, &m.Params, m.Alloc, top.sim.Clock())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := m.Stack.Register(placeholder, src, dst, uint16(5001+i), uint16(44000+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			m.Stack.Unregister(src, dst, uint16(5001+i), uint16(44000+i))
		}

		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		top.reserve(n)
		for i := 0; i < n; i++ {
			sPort, rPort := uint16(5001+i), uint16(44000+i)
			if _, err := top.senders[0].AddStreamConn(src, dst, sPort, rPort); err != nil {
				t.Fatal(err)
			}
			if _, _, err := top.openReceiver(src, dst, sPort, rPort); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	few, many := opens(20), opens(200)
	t.Logf("opening 20 connections allocates %d times, 200 %d times", few, many)
	if many != few {
		t.Errorf("opening 200 connections allocates %d times, 20 allocate %d: records are allocated per connection", many, few)
	}
}

// BenchmarkOpenConnections builds a one-link stream run of 200
// connections up to its first event: the topology, both machines' record
// slabs and the demux entries. Its allocs/op is the set-up price of a
// connection population.
func BenchmarkOpenConnections(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
		cfg.NICs, cfg.Connections = 1, 200
		if _, err := buildStream(&cfg); err != nil {
			b.Fatal(err)
		}
	}
}
