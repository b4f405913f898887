package main

import (
	"fmt"
	"reflect"

	"repro"
)

// A wire-limited receiver delivers inside the measurement window the wire's
// goodput plus whatever its receive rings held when the window opened, so
// throughput may read over LinkLimitedMbps by up to the time the rings take
// to drain on the wire, as a share of the window (rss-smp-q2 reads 7532.409
// against 7531.860 Mb/s). The overshoot is reported as
// model.audit.over_wire_pct.
const (
	ringFrames = 256  // the NIC's default receive ring, per queue
	wireFrameB = 1538 // a full-size frame on the wire: preamble, headers, payload, FCS, gap
)

// wireLimitMbps is the most throughput res can honestly report.
func wireLimitMbps(res repro.StreamResult) float64 {
	drainNs := float64(max(res.Queues, 1) * ringFrames * wireFrameB * 8) // 1 bit per ns at 1 Gb/s
	return res.LinkLimitedMbps * (1 + drainNs/float64(res.DurationNs))
}

// checkIdentities returns the accounting identities and physical bounds a
// stream result violates (nil when it is sound). timed marks a measured
// run: set-up runs cover 1 ns of virtual time and deliver nothing, so the
// delivery bound applies only to measured runs.
func checkIdentities(res repro.StreamResult, timed bool) []string {
	var bad []string
	a := res.AggStats
	if a.FramesIn != a.HostOut+a.Coalesced {
		bad = append(bad, fmt.Sprintf("AggStats.FramesIn %d != HostOut %d + Coalesced %d",
			a.FramesIn, a.HostOut, a.Coalesced))
	}
	if a.Held < a.Stitched+a.WindowTimeout {
		bad = append(bad, fmt.Sprintf("AggStats.Held %d < Stitched %d + WindowTimeout %d",
			a.Held, a.Stitched, a.WindowTimeout))
	}
	tw := res.TimeWait
	if tw.Entered != tw.Reaped+tw.Reused+tw.Evicted+uint64(tw.Len) {
		bad = append(bad, fmt.Sprintf("TimeWait.Entered %d != Reaped %d + Reused %d + Evicted %d + Len %d",
			tw.Entered, tw.Reaped, tw.Reused, tw.Evicted, tw.Len))
	}
	if timed && (res.Frames == 0 || res.ThroughputMbps > wireLimitMbps(res)) {
		bad = append(bad, fmt.Sprintf("Frames %d, ThroughputMbps %v over the wire's %v (LinkLimitedMbps %v plus ring drain)",
			res.Frames, res.ThroughputMbps, wireLimitMbps(res), res.LinkLimitedMbps))
	}
	return bad
}

// withoutLatency returns res with its latency telemetry cleared: the form
// in which a run with telemetry on must equal the same run with it off.
func withoutLatency(res repro.StreamResult) repro.StreamResult {
	res.Latency = repro.LatencyReport{}
	return res
}

// checkReplay reports whether rep replays ref bit for bit, the simulated
// result being a pure function of the config.
func checkReplay(ref, rep repro.StreamResult) []string {
	if reflect.DeepEqual(ref, rep) {
		return nil
	}
	return []string{fmt.Sprintf("replay drift: %.6f Mb/s, %d frames vs first run's %.6f Mb/s, %d frames",
		rep.ThroughputMbps, rep.Frames, ref.ThroughputMbps, ref.Frames)}
}
