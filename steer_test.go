package repro

import "testing"

// steeredStream runs the 200-flow zipf workload of the steering
// acceptance criteria at the golden capture interval.
func steeredStream(t *testing.T, sys SystemKind, opt OptLevel, steer SteerConfig) StreamResult {
	t.Helper()
	cfg := DefaultStreamConfig(sys, opt)
	cfg.NICs = 8
	cfg.Connections = 200
	cfg.Queues = 4
	cfg.FlowSkew = 1.2
	cfg.Steering = steer
	cfg.DurationNs = 30_000_000
	cfg.WarmupNs = 15_000_000
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSteeringNarrowsSpread is the acceptance check: on 200 zipf-skewed
// flows, dynamic steering (rebalancer + aRFS) must materially narrow the
// max−min per-CPU utilization spread versus static RSS without giving up
// throughput — on the native pipeline and the paravirtual one.
func TestSteeringNarrowsSpread(t *testing.T) {
	cases := []struct {
		sys SystemKind
		opt OptLevel
	}{
		{SystemNativeUP, OptFull}, // wire-limited: imbalance shows as idle-CPU spread
		{SystemXen, OptNone},      // CPU-bound: imbalance costs throughput directly
	}
	for _, c := range cases {
		static := steeredStream(t, c.sys, c.opt, SteerConfig{})
		steered := steeredStream(t, c.sys, c.opt, SteerConfig{Enabled: true, ARFS: true})

		if static.UtilSpread() < 0.05 {
			t.Fatalf("%v/%v: static spread %.3f too small — workload lost its skew, test is vacuous",
				c.sys, c.opt, static.UtilSpread())
		}
		if steered.UtilSpread() > 0.55*static.UtilSpread() {
			t.Errorf("%v/%v: spread %.3f → %.3f: not a material narrowing",
				c.sys, c.opt, static.UtilSpread(), steered.UtilSpread())
		}
		if steered.ThroughputMbps < static.ThroughputMbps*0.995 {
			t.Errorf("%v/%v: steering cost throughput: %.0f → %.0f Mb/s",
				c.sys, c.opt, static.ThroughputMbps, steered.ThroughputMbps)
		}
		if steered.Steer == nil {
			t.Fatalf("%v/%v: no steering report", c.sys, c.opt)
		}
		if steered.Steer.Moves == 0 && steered.Steer.RulesProgrammed == 0 {
			t.Errorf("%v/%v: steering enabled but never acted", c.sys, c.opt)
		}
		if static.Steer != nil {
			t.Errorf("%v/%v: static run carries a steering report", c.sys, c.opt)
		}
	}
}

// TestSteeringInvalidConfig: bad steering parameters, and knobs whose
// steering mode is off, are a configuration error through the public API,
// not a crash or a silently ignored value.
func TestSteeringInvalidConfig(t *testing.T) {
	for name, sc := range map[string]SteerConfig{
		"RuleTableSlots without ARFS":   {Enabled: true, RuleTableSlots: 16},
		"AppMigrate without ARFS":       {Enabled: true, AppMigrateIntervalNs: 2_000_000},
		"EpochNs with steering off":     {EpochNs: 2_000_000},
		"EpochNs with aRFS alone":       {ARFS: true, EpochNs: 2_000_000},
		"negative RuleTableSlots, ARFS": {ARFS: true, RuleTableSlots: -1},
	} {
		cfg := DefaultStreamConfig(SystemNativeUP, OptNone)
		cfg.Steering = sc
		cfg.DurationNs = 1_000_000
		if _, err := RunStream(cfg); err == nil {
			t.Errorf("%s: %+v did not error", name, sc)
		}
	}
}

// TestSteeringRebalancerAlone: the indirection rebalancer without aRFS
// must already narrow the spread (the two policies are independent).
func TestSteeringRebalancerAlone(t *testing.T) {
	static := steeredStream(t, SystemNativeUP, OptNone, SteerConfig{})
	reb := steeredStream(t, SystemNativeUP, OptNone, SteerConfig{Enabled: true})
	if reb.UtilSpread() > 0.7*static.UtilSpread() {
		t.Errorf("rebalancer alone: spread %.3f → %.3f", static.UtilSpread(), reb.UtilSpread())
	}
	if reb.ThroughputMbps < static.ThroughputMbps*0.995 {
		t.Errorf("rebalancer cost throughput: %.0f → %.0f Mb/s",
			static.ThroughputMbps, reb.ThroughputMbps)
	}
	if reb.Steer.Moves == 0 {
		t.Error("rebalancer never moved a bucket")
	}
	if reb.Steer.RulesProgrammed != 0 {
		t.Errorf("rebalancer-only run programmed %d aRFS rules", reb.Steer.RulesProgrammed)
	}
}

// TestSteeringFollowsMigratingApp: with the app-migration workload, aRFS
// keeps re-steering (rules chase the application's CPU) and the stream
// keeps its throughput.
func TestSteeringFollowsMigratingApp(t *testing.T) {
	settled := steeredStream(t, SystemNativeUP, OptFull,
		SteerConfig{Enabled: true, ARFS: true})
	res := steeredStream(t, SystemNativeUP, OptFull,
		SteerConfig{Enabled: true, ARFS: true, AppMigrateIntervalNs: 2_000_000})
	if res.Steer.AppMigrations == 0 {
		t.Fatal("no app migrations fired")
	}
	// Each migration's next socket read re-programs the flow's rule, so
	// the migrating run must program measurably more rules than the
	// settled one (which programs each mis-hashed flow once).
	if res.Steer.RulesProgrammed < settled.Steer.RulesProgrammed+res.Steer.AppMigrations/2 {
		t.Errorf("rules programmed %d (settled: %d) with %d app migrations: aRFS not following",
			res.Steer.RulesProgrammed, settled.Steer.RulesProgrammed, res.Steer.AppMigrations)
	}
	if res.ThroughputMbps < 7000 {
		t.Errorf("throughput collapsed under app migration: %.0f Mb/s", res.ThroughputMbps)
	}
}

// TestChurnTeardownHandshake: connection churn now pays for teardown on
// the receive path — FIN processed, final ACK sent, endpoints linger in
// TIME_WAIT and are reaped — while throughput holds.
func TestChurnTeardownHandshake(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.Connections = 200
	cfg.Queues = 4
	cfg.FlowSkew = 1.1
	cfg.ChurnIntervalNs = 2_000_000
	cfg.DurationNs = 30_000_000
	cfg.WarmupNs = 15_000_000
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsTornDown == 0 {
		t.Fatal("churn never tore a flow down")
	}
	if res.TimeWait.Entered == 0 {
		t.Error("no teardown reached TIME_WAIT: FIN handshake not completing")
	}
	if res.TimeWait.Reaped == 0 {
		t.Error("no TIME_WAIT entry was reaped")
	}
	if res.TimeWait.Reaped > res.TimeWait.Entered {
		t.Errorf("reaped %d > entered %d", res.TimeWait.Reaped, res.TimeWait.Entered)
	}
	if res.ThroughputMbps < 3000 {
		t.Errorf("churned throughput collapsed: %.0f Mb/s", res.ThroughputMbps)
	}
}
