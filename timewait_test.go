package repro

import "testing"

// stormRun executes the restart-storm scenario at a given seeded
// TIME_WAIT backlog: half the flows torn down mid-measurement and
// redialed on their own four-tuples with tw_reuse on.
func stormRun(t *testing.T, sys SystemKind, prefill int) StreamResult {
	t.Helper()
	cfg := DefaultStreamConfig(sys, OptFull)
	cfg.NICs = 4
	cfg.Connections = 80
	cfg.Queues = 2
	cfg.TimeWaitReuse = true
	cfg.RestartStorm = RestartStormConfig{
		AtNs:            20_000_000, // 5 ms into the measured interval
		PrefillTimeWait: prefill,
	}
	return shortStream(t, cfg)
}

// TestRestartStormScalesFlat is the TIME_WAIT-at-scale acceptance check:
// as the lingering population scales 1k → 100k (far beyond what the port
// space admits as live flows), receive-path cycles per byte must stay
// flat — the sharded deadline queues charge each insert/reap a constant
// number of touches, where the seed's flat slice rescanned the whole
// population on every insert and sweep. The storm itself must complete:
// every victim redials its own four-tuple through SYN-time reuse or the
// reap, and the table accounting balances.
func TestRestartStormScalesFlat(t *testing.T) {
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		t.Run(sys.String(), func(t *testing.T) {
			small := stormRun(t, sys, 1_000)
			big := stormRun(t, sys, 100_000)
			for _, r := range []struct {
				name string
				res  StreamResult
			}{{"1k", small}, {"100k", big}} {
				st := r.res.TimeWait
				if st.Entered != st.Reaped+st.Reused+uint64(st.Len) {
					t.Errorf("%s: TIME_WAIT accounting broken: %+v", r.name, st)
				}
				if r.res.Storm == nil || r.res.Storm.TornDown == 0 {
					t.Fatalf("%s: storm never fired", r.name)
				}
				if r.res.Storm.Reconnected != r.res.Storm.TornDown {
					t.Errorf("%s: only %d of %d victims reconnected",
						r.name, r.res.Storm.Reconnected, r.res.Storm.TornDown)
				}
				if st.Reused == 0 {
					t.Errorf("%s: no SYN-time reuse during the storm", r.name)
				}
			}
			if small.TimeWait.Peak < 1_000 || big.TimeWait.Peak < 100_000 {
				t.Errorf("peaks %d/%d below the seeded backlogs",
					small.TimeWait.Peak, big.TimeWait.Peak)
			}
			// The O(1)-amortized claim: a 100x larger lingering population
			// costs only the (real, per-entry) reap touches of the entries
			// that actually expired in-window — single-digit percent of the
			// receive path, not a rescan-everything blowup.
			cpbSmall, cpbBig := small.CyclesPerByte(), big.CyclesPerByte()
			if cpbSmall <= 0 || cpbBig <= 0 {
				t.Fatal("storm run delivered nothing")
			}
			if cpbBig > cpbSmall*1.15 {
				t.Errorf("cycles/byte grew %.2f → %.2f (%.0f%%) over 1k → 100k TIME_WAIT entries",
					cpbSmall, cpbBig, (cpbBig/cpbSmall-1)*100)
			}
			if big.ThroughputMbps < small.ThroughputMbps*0.92 {
				t.Errorf("throughput collapsed with the backlog: %.0f → %.0f Mb/s",
					small.ThroughputMbps, big.ThroughputMbps)
			}
		})
	}
}

// TestRestartStormWithoutReuse: with tw_reuse off (the seed behaviour
// the goldens pin), a storm still completes — every redial backs off
// until the 2·MSL reap frees its four-tuple, and no entry is ever
// recycled.
func TestRestartStormWithoutReuse(t *testing.T) {
	cfg := DefaultStreamConfig(SystemNativeUP, OptFull)
	cfg.NICs = 2
	cfg.Connections = 16
	cfg.Queues = 2
	cfg.RestartStorm = RestartStormConfig{AtNs: 18_000_000}
	res := shortStream(t, cfg)
	if res.Storm == nil || res.Storm.TornDown == 0 {
		t.Fatal("storm never fired")
	}
	if res.TimeWait.Reused != 0 || res.TimeWait.ReuseRefused != 0 {
		t.Errorf("reuse machinery ran while disabled: %+v", res.TimeWait)
	}
	if res.Storm.Retries == 0 {
		t.Error("no redial ever backed off on the lingering entry")
	}
	if res.Storm.Reconnected != res.Storm.TornDown {
		t.Errorf("only %d of %d victims reconnected after the reap",
			res.Storm.Reconnected, res.Storm.TornDown)
	}
	st := res.TimeWait
	if st.Entered != st.Reaped+uint64(st.Len) {
		t.Errorf("reuse-disabled accounting should balance without the Reused term: %+v", st)
	}
}
