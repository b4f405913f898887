package sim

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/frontend"
	"repro/internal/xenvirt"
)

// roundFunc runs one softirq round on cpu with the given per-queue poll
// budget: it polls that CPU's queue on every NIC, runs aggregation, the
// stack and the endpoints, and charges the per-frame misc work. It returns
// the network frames consumed and whether a driver exhausted its budget
// (NAPI keeps such drivers on the poll list: the CPU must run another
// round without waiting for an interrupt).
type roundFunc func(cpu, budget int) (frames int, more bool)

// buildMachine constructs the system under test: its receive front end
// and softirq round.
func buildMachine(cfg *StreamConfig) (*frontend.FrontEnd, roundFunc, error) {
	aggOpts := core.DefaultOptions()
	if cfg.AggLimit > 0 {
		aggOpts.Aggregation.Limit = cfg.AggLimit
	}
	aggOpts.Aggregation.ReorderWindow = cfg.ReorderWindow

	var params cost.Params
	switch cfg.System {
	case SystemNativeUP:
		params = cost.NativeUP()
	case SystemNativeSMP:
		params = cost.NativeSMP()
	case SystemXen:
		params = cost.XenGuest()
	default:
		return nil, nil, fmt.Errorf("sim: unknown system %d", int(cfg.System))
	}
	if cfg.Params != nil {
		params = *cfg.Params
	}
	mode := frontend.ModeBaseline
	if cfg.Opt != OptNone {
		mode = frontend.ModeOptimized
	}
	fc := frontend.Config{
		Params:        params,
		NICCount:      cfg.NICs,
		Queues:        cfg.Queues,
		Mode:          mode,
		Aggregation:   aggOpts,
		FlowRuleSlots: cfg.Steering.RuleTableSlots,
	}
	return newMachine(fc, cfg.System == SystemXen)
}

// newMachine assembles a receiver from fc and returns its front end and
// softirq round. On Xen (one guest vCPU and I/O channel per queue) the
// round is the machine's ProcessRound. Natively driver output enters the
// host stack directly on the polling CPU, and the round is the front end's
// Poll plus the per-frame misc (and SMP coherence) charge.
func newMachine(fc frontend.Config, xen bool) (*frontend.FrontEnd, roundFunc, error) {
	if xen {
		m, err := xenvirt.New(fc)
		if err != nil {
			return nil, nil, err
		}
		return &m.FrontEnd, m.ProcessRound, nil
	}
	fe := &frontend.FrontEnd{}
	if err := fe.Init(fc, func(q int) func(*buf.SKB) { return fe.Stack.InputOn(q) }); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	round := func(cpu, budget int) (int, bool) {
		frames, more := fe.Poll(cpu, budget)
		if frames > 0 {
			misc := fe.Params.MiscPerPacket
			if fe.Params.SMP {
				misc += fe.Params.SMPMiscExtra
			}
			fe.Meter.Charge(cycles.Misc, uint64(frames)*misc)
		}
		return frames, more
	}
	return fe, round, nil
}
