package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/nic"
	"repro/internal/paper"
)

func TestSimEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(100, func() { order = append(order, 2) })
	s.Schedule(50, func() { order = append(order, 1) })
	s.Schedule(100, func() { order = append(order, 3) }) // FIFO at same time
	s.After(200, func() { order = append(order, 4) })
	n := s.RunUntil(1000)
	if n != 4 {
		t.Fatalf("executed %d events, want 4", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 1000 {
		t.Errorf("Now = %d, want 1000", s.Now())
	}
}

func TestSimDeadlineStopsExecution(t *testing.T) {
	s := NewSim()
	ran := false
	s.Schedule(500, func() { ran = true })
	s.RunUntil(100)
	if ran {
		t.Error("event beyond deadline executed")
	}
	if len(s.events) != 1 {
		t.Errorf("%d events pending, want 1", len(s.events))
	}
	s.RunUntil(600)
	if !ran {
		t.Error("event not executed after deadline extension")
	}
}

func TestSimEventsScheduleEvents(t *testing.T) {
	s := NewSim()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.After(10, tick)
		}
	}
	s.After(0, tick)
	s.RunUntil(1000)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
}

func TestSimSchedulePastClamps(t *testing.T) {
	s := NewSim()
	s.RunUntil(100)
	ran := false
	s.Schedule(50, func() { ran = true }) // in the past: clamp to now
	s.RunUntil(100)
	if !ran {
		t.Error("past-scheduled event not run at current time")
	}
}

func TestSimNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil event")
		}
	}()
	NewSim().Schedule(0, nil)
}

func shortStream(sys SystemKind, opt OptLevel) StreamConfig {
	cfg := DefaultStreamConfig(sys, opt)
	cfg.DurationNs = 50_000_000
	cfg.WarmupNs = 25_000_000
	return cfg
}

// The paper's evaluation is checked against internal/paper: each test
// below checks the rows under its key prefix, computing each row's value
// from runs that every test shares, so each configuration runs once.
func TestFig7Throughputs(t *testing.T)                  { checkPaperRows(t, "fig7/mbps/") }
func TestFig7OptimizedSaturatesNICsNotCPU(t *testing.T) { checkPaperRows(t, "fig7/bound/") }
func TestCPUScaledGains(t *testing.T)                   { checkPaperRows(t, "fig7/cpu-scaled/") }
func TestRAOnlyAblation(t *testing.T)                   { checkPaperRows(t, "fig7/ra/") }
func TestAggregationFactorNearLimit(t *testing.T)       { checkPaperRows(t, "fig8/agg-factor") }
func TestFig11LimitSweepShape(t *testing.T)             { checkPaperRows(t, "fig11/") }
func TestTable1RequestResponse(t *testing.T)            { checkPaperRows(t, "table1/") }

func TestFig12ScalabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-connection sweep is slow")
	}
	checkPaperRows(t, "fig12/")
}

// checkPaperRows checks every banded row under prefix, and fails on a
// banded row no metric computes.
func checkPaperRows(t *testing.T, prefix string) {
	for _, row := range paper.Rows {
		if !strings.HasPrefix(row.Key, prefix) || !row.Checked() {
			continue
		}
		metric, ok := paperMetrics[row.Key]
		if !ok {
			t.Errorf("%s: no metric computes this row", row.Key)
			continue
		}
		got := metric(t)
		t.Logf("%s = %.3f", row.Key, got)
		if !row.In(got) {
			t.Errorf("%s (%s): %.2f %s outside band [%v, %v]", row.Key, row.Label, got, row.Unit, row.Lo, row.Hi)
		}
	}
}

// paperRuns memoizes the runs the paper rows read, by resolved config.
var paperRuns = map[string]StreamResult{}

// paperRun is the stream run of sys at opt with the given Aggregation Limit
// and connection count (0 for the defaults).
func paperRun(t *testing.T, sys SystemKind, opt OptLevel, limit, conns int) StreamResult {
	cfg := shortStream(sys, opt)
	cfg.AggLimit, cfg.Connections = limit, conns
	key := fmt.Sprintf("%+v", cfg.Resolved())
	if _, ok := paperRuns[key]; !ok {
		res, err := RunStream(cfg)
		if err != nil {
			t.Fatalf("%v/%v limit %d conns %d: %v", sys, opt, limit, conns, err)
		}
		paperRuns[key] = res
	}
	return paperRuns[key]
}

// rr is Table 1's request rate of sys at opt over 200 ms.
func rr(t *testing.T, sys SystemKind, opt OptLevel) float64 {
	key := fmt.Sprint("rr ", sys, opt)
	if _, ok := paperRuns[key]; !ok {
		cfg := DefaultRRConfig(sys, opt)
		cfg.DurationNs = 200_000_000
		res, err := RunRR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		paperRuns[key] = StreamResult{ThroughputMbps: res.RequestsPerSec}
	}
	return paperRuns[key].ThroughputMbps
}

// pct is a over b as a percentage change.
func pct(a, b float64) float64 { return (a/b - 1) * 100 }

// paperMetrics computes the simulator's value of each row checked here.
var paperMetrics = func() map[string]func(*testing.T) float64 {
	up, smp, xen, none, ra, full := SystemNativeUP, SystemNativeSMP, SystemXen, OptNone, OptAggregation, OptFull
	linkShare := func(r StreamResult) float64 { return 100 * r.ThroughputMbps / r.LinkLimitedMbps }
	cycles := func(t *testing.T, limit int) float64 { return paperRun(t, up, full, limit, 0).CyclesPerPacket }
	lead := func(t *testing.T, conns int) float64 {
		return pct(paperRun(t, smp, full, 0, conns).ThroughputMbps, paperRun(t, smp, none, 0, conns).ThroughputMbps)
	}
	m := map[string]func(*testing.T) float64{
		"fig7/bound/opt-link":  func(t *testing.T) float64 { return linkShare(paperRun(t, up, full, 0, 0)) },
		"fig7/bound/opt-util":  func(t *testing.T) float64 { return 100 * paperRun(t, up, full, 0, 0).CPUUtil },
		"fig7/bound/orig-util": func(t *testing.T) float64 { return 100 * paperRun(t, up, none, 0, 0).CPUUtil },
		"fig7/bound/orig-link": func(t *testing.T) float64 { return linkShare(paperRun(t, up, none, 0, 0)) },
		"fig7/ra/util": func(t *testing.T) float64 {
			return 100 * min(paperRun(t, up, ra, 0, 0).CPUUtil, paperRun(t, smp, ra, 0, 0).CPUUtil, paperRun(t, xen, ra, 0, 0).CPUUtil)
		},
		"fig7/ra/ack-offload": func(t *testing.T) float64 {
			saved := func(sys SystemKind) float64 {
				return pct(paperRun(t, sys, full, 0, 0).CyclesPerPacket, paperRun(t, sys, ra, 0, 0).CyclesPerPacket)
			}
			return max(saved(up), saved(smp), saved(xen))
		},
		"fig8/agg-factor": func(t *testing.T) float64 { return paperRun(t, up, full, 0, 0).AggFactor },
		"fig11/limit1":    func(t *testing.T) float64 { return pct(cycles(t, 1), paperRun(t, up, none, 0, 0).CyclesPerPacket) },
		"fig11/monotone": func(t *testing.T) float64 {
			rise, limits := math.Inf(-1), []int{1, 2, 5, 10, 20, 35}
			for i := 1; i < len(limits); i++ {
				rise = max(rise, pct(cycles(t, limits[i]), cycles(t, limits[i-1])))
			}
			return rise
		},
		// The drop from limit 20 to 35 as a share of the drop from 1 to 10.
		"fig11/knee": func(t *testing.T) float64 {
			if cycles(t, 1) <= cycles(t, 10) {
				return math.Inf(1)
			}
			return 100 * (cycles(t, 20) - cycles(t, 35)) / (cycles(t, 1) - cycles(t, 10))
		},
		"fig12/lead-400":   func(t *testing.T) float64 { return lead(t, 400) },
		"fig12/lead-fewer": func(t *testing.T) float64 { return min(lead(t, 5), lead(t, 100)) },
		"fig12/agg": func(t *testing.T) float64 {
			return min(paperRun(t, smp, full, 0, 100).AggFactor, paperRun(t, smp, full, 0, 400).AggFactor)
		},
		"table1/up-orig":    func(t *testing.T) float64 { return rr(t, up, none) },
		"table1/up-impact":  func(t *testing.T) float64 { return pct(rr(t, up, full), rr(t, up, none)) },
		"table1/xen-impact": func(t *testing.T) float64 { return pct(rr(t, xen, full), rr(t, xen, none)) },
		"table1/xen-slower": func(t *testing.T) float64 { return pct(rr(t, xen, none), rr(t, up, none)) },
	}
	for i, name := range []string{"up", "smp", "xen"} {
		sys := []SystemKind{up, smp, xen}[i]
		at := func(t *testing.T, opt OptLevel) StreamResult { return paperRun(t, sys, opt, 0, 0) }
		m["fig7/mbps/"+name+"-orig"] = func(t *testing.T) float64 { return at(t, none).ThroughputMbps }
		m["fig7/mbps/"+name+"-opt"] = func(t *testing.T) float64 { return at(t, full).ThroughputMbps }
		m["fig7/ra/"+name] = func(t *testing.T) float64 { return pct(at(t, ra).ThroughputMbps, at(t, none).ThroughputMbps) }
		m["fig7/cpu-scaled/"+name] = func(t *testing.T) float64 { return pct(at(t, none).CyclesPerPacket, at(t, full).CyclesPerPacket) }
	}
	return m
}()

func TestRRNoAggregationDelay(t *testing.T) {
	// Work conservation: one-packet-at-a-time traffic must never wait
	// for aggregation (AggFactor stays 1).
	cfg := DefaultRRConfig(SystemNativeUP, OptFull)
	cfg.DurationNs = 100_000_000
	res, err := RunRR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AggFactor > 1.01 {
		t.Errorf("RR aggregation factor = %.2f, want 1.0", res.AggFactor)
	}
}

func TestStreamByteIntegrity(t *testing.T) {
	// End-to-end: the receiver's delivered byte count matches throughput
	// accounting, and no SKBs leak over a full run.
	cfg := shortStream(SystemNativeUP, OptFull)
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)
	for _, ep := range top.machine.Endpoints() {
		st := ep.Stats()
		if st.BytesToApp == 0 {
			t.Error("endpoint received nothing")
		}
		if st.OOOSegs > 0 || st.DupSegs > 0 {
			t.Errorf("lossless run saw OOO=%d dup=%d", st.OOOSegs, st.DupSegs)
		}
	}
}

func TestSenderMachineRoundRobin(t *testing.T) {
	s := NewSim()
	m := NewSender(s, 3)
	ipA := [4]byte{10, 0, 0, 1}
	ipB := [4]byte{10, 0, 0, 2}
	if _, err := m.AddStreamConn(ipA, ipB, 1001, 2001); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStreamConn(ipA, ipB, 1002, 2002); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStreamConn(ipA, ipB, 1001, 2001); err == nil {
		t.Fatal("duplicate port accepted")
	}
	// Quantum 3: frames come in runs of 3 per connection.
	var ports []uint16
	for i := 0; i < 12; i++ {
		f := m.NextFrame()
		if f == nil {
			t.Fatalf("frame %d: window closed early", i)
		}
		// src port at offset 34 (eth 14 + ip 20).
		ports = append(ports, uint16(f[34])<<8|uint16(f[35]))
	}
	runs := 1
	for i := 1; i < len(ports); i++ {
		if ports[i] != ports[i-1] {
			runs++
		}
	}
	if runs != 4 {
		t.Errorf("port runs = %d (%v), want 4 runs of 3", runs, ports)
	}
}

func TestLinkWireTime(t *testing.T) {
	s := NewSim()
	m := NewSender(s, 0)
	// MTU frame: 1538 wire bytes = 12.304 us at 1 Gb/s.
	l := NewLink(s, m, mustTestNIC(t))
	if got := l.wireTimeNs(1514); got != 12304 {
		t.Errorf("wire time = %d ns, want 12304", got)
	}
}

func mustTestNIC(tb testing.TB) *nic.NIC {
	tb.Helper()
	n, err := nic.New(nic.DefaultConfig("test0"))
	if err != nil {
		tb.Fatal(err)
	}
	return n
}
