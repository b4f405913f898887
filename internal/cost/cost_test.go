package cost

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/paper"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range []Params{NativeUP(), NativeUP38(), NativeSMP(), XenGuest()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"empty name", func(p *Params) { p.Name = "" }},
		{"zero clock", func(p *Params) { p.ClockHz = 0 }},
		{"zero cores", func(p *Params) { p.Cores = 0 }},
		{"bad mem", func(p *Params) { p.Mem.LineSize = 0 }},
		{"smp without lock cost", func(p *Params) { p.SMP = true; p.LockedRMW = 0 }},
		{"zero desc lines", func(p *Params) { p.DriverDescLines = 0 }},
		{"zero ack bytes", func(p *Params) { p.AckBytes = 0 }},
	}
	for _, tc := range cases {
		p := NativeUP()
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestLockCost(t *testing.T) {
	up := NativeUP()
	if got := up.LockCost(6); got != 0 {
		t.Errorf("UP LockCost = %d, want 0", got)
	}
	smp := NativeSMP()
	if got, want := smp.LockCost(6), 6*smp.LockedRMW; got != want {
		t.Errorf("SMP LockCost = %d, want %d", got, want)
	}
	if got := smp.LockCost(0); got != 0 {
		t.Errorf("SMP LockCost(0) = %d, want 0", got)
	}
}

// checkRow fails t unless got lies in the band of the paper row key.
func checkRow(t *testing.T, key string, got float64) {
	t.Helper()
	if row := paper.Get(key); !row.In(got) {
		t.Errorf("%s = %.1f %s, want ~%v (band %v to %v)", row.Label, got, row.Unit, row.Paper, row.Lo, row.Hi)
	}
}

func TestSMPLockCalibration(t *testing.T) {
	// Paper §2.3 (Figure 4): SMP raises rx and tx relative to UP.
	smp := NativeSMP()
	rxBase := smp.IPRxFixed + smp.TCPRxSegment
	rxExtra := smp.LockCost(smp.RxLockOps)
	checkRow(t, "fig4/rx", 100*float64(rxExtra)/float64(rxBase))
	// tx locks are charged per ACK; one ACK covers two data segments, so
	// the per-data-packet tx base is half the per-ACK cost.
	txBasePerAck := smp.TCPMakeAck + smp.IPTxFixed + smp.TxQueueFixed
	txExtraPerAck := smp.LockCost(smp.TxLockOps)
	checkRow(t, "fig4/tx", 100*float64(txExtraPerAck)/float64(txBasePerAck))
}

func TestDRAMLatencyScalesWithClock(t *testing.T) {
	up := NativeUP()
	up38 := NativeUP38()
	if up.Mem.DRAMLatency != 300 {
		t.Errorf("3.0 GHz DRAM latency = %d cycles, want 300", up.Mem.DRAMLatency)
	}
	if up38.Mem.DRAMLatency != 380 {
		t.Errorf("3.8 GHz DRAM latency = %d cycles, want 380", up38.Mem.DRAMLatency)
	}
}

func TestMACMoveCalibration(t *testing.T) {
	// Paper §5.1: moving MAC processing (and its compulsory miss) out of
	// the driver saves cycles/packet on the 3 GHz machine.
	p := NativeUP()
	checkRow(t, "fig8/mac-move", float64(p.MACProcFixed+p.Mem.HeaderTouchCost()))
}

func TestXenProfileHasVirtCosts(t *testing.T) {
	x := XenGuest()
	if x.BridgePerPacket == 0 || x.NetbackPerPacket == 0 || x.NetfrontPerPacket == 0 {
		t.Error("Xen profile missing virtualization costs")
	}
	if x.NetbackPerFrag == 0 || x.NetfrontPerFrag == 0 || x.XenGrantPerFrag == 0 {
		t.Error("Xen profile missing per-fragment costs (needed for §5.1 behaviour)")
	}
	u := NativeUP()
	if u.BridgePerPacket != 0 || u.NetbackPerPacket != 0 {
		t.Error("native profile must not carry virtualization costs")
	}
}

// baseline composes p's Original cost per packet under memory model mem,
// as the live stack charges it: MSS-sized (1448 B) frames, one ACK per two
// data segments.
func baseline(p Params, mem memmodel.Params) (perByte, rxTx, bufferNonProto, driver, misc float64) {
	rx := p.IPRxFixed + p.TCPRxSegment
	tx := (p.TCPMakeAck + p.IPTxFixed + p.TxQueueFixed) / 2
	buffer := p.SKBAlloc + p.SKBFree + p.DataBufPerFrame + (p.AckSKBAlloc+p.AckSKBFree)/2
	nonProto := p.SoftirqPerPacket + p.NetfilterPerPacket + p.NonProtoOther
	drv := p.DriverRxFixed + mem.RandomTouchCost(p.DriverDescLines) +
		mem.HeaderTouchCost() + p.MACProcFixed + p.DriverTxPerPacket/2
	return float64(mem.CopyCost(1448) + p.CopyFixed), float64(rx + tx), float64(buffer + nonProto),
		float64(drv), float64(p.MiscPerPacket)
}

func TestBaselineUPFigure3Shares(t *testing.T) {
	// Static calibration check against Figure 3: compose the baseline
	// per-packet cost from the table, as the live stack will, and check
	// the category shares.
	p := NativeUP()
	perByte, rxTx, bufferNonProto, driver, misc := baseline(p, p.Mem)
	total := perByte + rxTx + bufferNonProto + driver + misc
	checkRow(t, "fig3/per-byte", 100*perByte/total)
	checkRow(t, "fig3/rx-tx", 100*rxTx/total)
	checkRow(t, "fig3/buffer-non-proto", 100*bufferNonProto/total)
	checkRow(t, "fig3/driver", 100*driver/total)
	checkRow(t, "fig3/misc", 100*misc/total)

	// And Figure 7's baseline throughput at saturation.
	checkRow(t, "fig7/mbps/up-orig", p.ClockHz/total*1448*8/1e6)
}

func TestPrefetchShiftFigure1(t *testing.T) {
	// The Figure 1 mechanism: on the 3.8 GHz machine, per-byte share must
	// fall from most of the cost (None) to a minor share (Full) while
	// per-packet rises to dominance.
	p := NativeUP38()
	shares := map[memmodel.PrefetchMode][2]float64{}
	for _, mode := range []memmodel.PrefetchMode{
		memmodel.PrefetchNone, memmodel.PrefetchPartial, memmodel.PrefetchFull,
	} {
		pb, rxTx, bufferNonProto, driver, misc := baseline(p, p.Mem.WithMode(mode))
		pp := rxTx + bufferNonProto + driver
		shares[mode] = [2]float64{100 * pb / (pb + pp + misc), 100 * pp / (pb + pp + misc)}
	}
	none, full := shares[memmodel.PrefetchNone], shares[memmodel.PrefetchFull]
	checkRow(t, "fig1/none-per-byte", none[0])
	checkRow(t, "fig1/full-per-byte", full[0])
	checkRow(t, "fig1/full-per-packet", full[1])
	if !(none[0] > shares[memmodel.PrefetchPartial][0] &&
		shares[memmodel.PrefetchPartial][0] > full[0]) {
		t.Error("per-byte share must decrease monotonically with prefetch aggressiveness")
	}
}
