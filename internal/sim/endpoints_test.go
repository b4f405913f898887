package sim

import (
	"strings"
	"testing"

	"repro/internal/netstack"
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
