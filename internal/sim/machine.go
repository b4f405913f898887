package sim

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/frontend"
	"repro/internal/xenvirt"
)

// buildMachine constructs the system under test and returns its receive
// front end, whose Poll is the machine's softirq round.
func buildMachine(cfg *StreamConfig) (*frontend.FrontEnd, error) {
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
		return nil, fmt.Errorf("sim: unknown system %d", int(cfg.System))
	}
	if cfg.Params != nil {
		params = *cfg.Params
	}
	mode := frontend.ModeBaseline
	if cfg.Opt != OptNone {
		mode = frontend.ModeOptimized
	}
	fc := frontend.Config{
		Params:      params,
		NICCount:    cfg.NICs,
		Queues:      cfg.Queues,
		Mode:        mode,
		Aggregation: aggOpts,
	}
	return newMachine(fc, cfg.System == SystemXen)
}

// newMachine assembles a receiver from fc and returns its front end. On
// Xen the front end is the driver domain's, with one guest vCPU and I/O
// channel per queue; natively driver output enters the host stack directly
// on the polling CPU.
func newMachine(fc frontend.Config, xen bool) (*frontend.FrontEnd, error) {
	if xen {
		m, err := xenvirt.New(fc)
		if err != nil {
			return nil, err
		}
		return &m.FrontEnd, nil
	}
	fe := &frontend.FrontEnd{}
	if err := fe.Init(fc, func(q int) func(*buf.SKB) { return fe.Stack.InputOn(q) }); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return fe, nil
}
