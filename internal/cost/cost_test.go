package cost

import (
	"testing"

	"repro/internal/memmodel"
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

func TestSMPLockCalibration(t *testing.T) {
	// Paper §2.3: SMP raises rx by 62% and tx by 40% relative to UP.
	smp := NativeSMP()
	rxBase := smp.IPRxFixed + smp.TCPRxSegment
	rxExtra := smp.LockCost(smp.RxLockOps)
	rxRatio := float64(rxExtra) / float64(rxBase)
	if rxRatio < 0.55 || rxRatio > 0.70 {
		t.Errorf("rx lock overhead ratio = %.2f, want ~0.62", rxRatio)
	}
	// tx locks are charged per ACK; one ACK covers two data segments, so
	// the per-data-packet tx base is half the per-ACK cost.
	txBasePerAck := smp.TCPMakeAck + smp.IPTxFixed + smp.TxQueueFixed
	txExtraPerAck := smp.LockCost(smp.TxLockOps)
	txRatio := float64(txExtraPerAck) / float64(txBasePerAck)
	if txRatio < 0.33 || txRatio > 0.47 {
		t.Errorf("tx lock overhead ratio = %.2f, want ~0.40", txRatio)
	}
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
	// the driver saves ~681 cycles/packet on the 3 GHz machine.
	p := NativeUP()
	saved := p.MACProcFixed + p.Mem.HeaderTouchCost()
	if saved < 600 || saved > 760 {
		t.Errorf("MAC move savings = %d cycles, want ~681", saved)
	}
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

func TestBaselineUPFigure3Shares(t *testing.T) {
	// Static calibration check against Figure 3: compose the baseline
	// per-packet cost from the table, as the live stack will, and check
	// the category shares. MSS-sized (1448 B) frames, one ACK per two
	// data segments.
	p := NativeUP()
	perByte := p.Mem.CopyCost(1448) + p.CopyFixed
	rx := p.IPRxFixed + p.TCPRxSegment
	txPerAck := p.TCPMakeAck + p.IPTxFixed + p.TxQueueFixed
	tx := txPerAck / 2
	buffer := p.SKBAlloc + p.SKBFree + p.DataBufPerFrame + (p.AckSKBAlloc+p.AckSKBFree)/2
	nonProto := p.SoftirqPerPacket + p.NetfilterPerPacket + p.NonProtoOther
	driver := p.DriverRxFixed + p.Mem.RandomTouchCost(p.DriverDescLines) +
		p.Mem.HeaderTouchCost() + p.MACProcFixed + p.DriverTxPerPacket/2
	misc := p.MiscPerPacket

	total := float64(perByte + rx + tx + buffer + nonProto + driver + misc)
	share := func(c uint64) float64 { return 100 * float64(c) / total }

	checks := []struct {
		name     string
		got      float64
		lo, hi   float64
		paperVal float64
	}{
		{"per-byte", share(perByte), 13, 20, 17},
		{"rx+tx", share(rx + tx), 18, 24, 21},
		{"buffer+non-proto", share(buffer + nonProto), 22, 28, 25},
		{"driver", share(driver), 18, 24, 21},
		{"misc", share(misc), 13, 19, 16},
	}
	for _, c := range checks {
		if c.got < c.lo || c.got > c.hi {
			t.Errorf("%s share = %.1f%%, want %.0f%% (band %.0f-%.0f)",
				c.name, c.got, c.paperVal, c.lo, c.hi)
		}
	}

	// And the baseline throughput target: ~3452 Mb/s at saturation.
	pps := p.ClockHz / total
	mbps := pps * 1448 * 8 / 1e6
	if mbps < 3300 || mbps > 3650 {
		t.Errorf("baseline UP saturation throughput = %.0f Mb/s, want ~3452", mbps)
	}
}

func TestPrefetchShiftFigure1(t *testing.T) {
	// The Figure 1 mechanism: on the 3.8 GHz machine, per-byte share must
	// fall from ~52% (None) to <20% (Full) while per-packet rises to
	// dominance.
	p := NativeUP38()
	perPacket := func(mem memmodel.Params) float64 {
		rx := p.IPRxFixed + p.TCPRxSegment
		tx := (p.TCPMakeAck + p.IPTxFixed + p.TxQueueFixed) / 2
		buffer := p.SKBAlloc + p.SKBFree + p.DataBufPerFrame + (p.AckSKBAlloc+p.AckSKBFree)/2
		nonProto := p.SoftirqPerPacket + p.NetfilterPerPacket + p.NonProtoOther
		driver := p.DriverRxFixed + mem.RandomTouchCost(p.DriverDescLines) +
			mem.HeaderTouchCost() + p.MACProcFixed + p.DriverTxPerPacket/2
		return float64(rx + tx + buffer + nonProto + driver)
	}
	shares := map[memmodel.PrefetchMode][2]float64{}
	for _, mode := range []memmodel.PrefetchMode{
		memmodel.PrefetchNone, memmodel.PrefetchPartial, memmodel.PrefetchFull,
	} {
		mem := p.Mem.WithMode(mode)
		pb := float64(mem.CopyCost(1448) + p.CopyFixed)
		pp := perPacket(mem)
		total := pb + pp + float64(p.MiscPerPacket)
		shares[mode] = [2]float64{100 * pb / total, 100 * pp / total}
	}
	none, full := shares[memmodel.PrefetchNone], shares[memmodel.PrefetchFull]
	if none[0] < 45 || none[0] > 58 {
		t.Errorf("None per-byte share = %.1f%%, want ~52%%", none[0])
	}
	if full[0] > 20 {
		t.Errorf("Full per-byte share = %.1f%%, want <=20%% (paper 14%%)", full[0])
	}
	if full[1] < 60 {
		t.Errorf("Full per-packet share = %.1f%%, want >=60%% (paper ~70%%)", full[1])
	}
	if !(none[0] > shares[memmodel.PrefetchPartial][0] &&
		shares[memmodel.PrefetchPartial][0] > full[0]) {
		t.Error("per-byte share must decrease monotonically with prefetch aggressiveness")
	}
}
