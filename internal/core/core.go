// Package core wires Receive Aggregation, the paper's first optimization,
// into the receive path: it owns the per-CPU softirq context whose
// aggregation queue the raw-mode driver produces into, drives the
// aggregation engine from softirq context, and enforces the
// work-conserving contract of §3.3/§3.5 — the moment the queue runs
// empty, every partially aggregated packet is flushed to the stack so
// that no packet ever waits while the stack is idle.
//
// In the multi-queue RSS pipeline there is one ReceivePath per receive
// queue, pinned to the queue's CPU. Each path owns its own
// aggregation engine, so aggregation state is shard-local: RSS guarantees
// a flow's frames all arrive on one queue, hence one engine ever holds a
// given flow's pending aggregate and no cross-CPU synchronization exists
// anywhere on the receive path.
//
// Acknowledgment Offload, the second optimization, does not pass through
// this package: templates are built by the TCP layer (internal/tcp, when
// its Config.AckOffload is set) and expanded by the driver
// (internal/driver, internal/ackoff). The two are designed to be used
// together (§4.3), since aggregation is what creates the batched ACK
// opportunity.
package core

import (
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/nic"
	"repro/internal/softirq"
)

// queueCapacity sizes the raw aggregation queue (frames).
const queueCapacity = 4096

// Options selects the optimized receive path's parameters.
type Options struct {
	// Aggregation configures the Receive Aggregation engine.
	Aggregation aggregate.Config
	// AckOffload is not read by this package: ACK offload is switched by
	// the receiving endpoint's tcp.Config.AckOffload.
	AckOffload bool
}

// DefaultOptions mirrors the paper's evaluated configuration: Aggregation
// Limit 20 with ACK offload on.
func DefaultOptions() Options {
	return Options{
		Aggregation: aggregate.DefaultConfig(),
		AckOffload:  true,
	}
}

// ReceivePath is the optimized softirq receive path for one CPU.
type ReceivePath struct {
	ctx    *softirq.Context[nic.Frame]
	engine *aggregate.Engine
}

// New builds one CPU's receive path delivering host packets to out: its
// softirq context, aggregation queue and aggregation engine all belong to
// that CPU alone.
func New(opts Options, m *cycles.Meter, p *cost.Params, alloc *buf.Allocator,
	out func(*buf.SKB)) (*ReceivePath, error) {
	if out == nil {
		return nil, fmt.Errorf("core: out must not be nil")
	}
	ctx, err := softirq.NewContext[nic.Frame](queueCapacity)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	eng, err := aggregate.New(opts.Aggregation, m, p, alloc)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	eng.Out = out
	ctx.Handle = eng.Input
	ctx.Idle = eng.FlushAll
	return &ReceivePath{ctx: ctx, engine: eng}, nil
}

// Engine exposes the aggregation engine (stats, tests).
func (rp *ReceivePath) Engine() *aggregate.Engine { return rp.engine }

// EnqueueRaw is the driver-side producer (interrupt context): it drops the
// raw frame into the per-CPU aggregation queue. It reports false when the
// queue is full, in which case the driver counts a drop — the same
// behaviour as a softirq backlog overflow in Linux.
func (rp *ReceivePath) EnqueueRaw(f nic.Frame) bool {
	return rp.ctx.Enqueue(f)
}

// Process consumes up to budget raw frames from the queue through the
// aggregation engine. When the queue runs empty — before or at the budget —
// all partial aggregates are flushed (work conservation, §3.5): control
// returns with nothing pending unless the budget was exhausted first.
//
// It returns the number of frames consumed.
func (rp *ReceivePath) Process(budget int) int {
	return rp.ctx.Run(budget)
}
