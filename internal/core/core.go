// Package core wires the paper's two optimizations into the receive path:
// it owns the per-CPU softirq context whose lock-free aggregation queue
// the raw-mode driver produces into, drives the Receive Aggregation
// engine from softirq context, and enforces the work-conserving contract
// of §3.3/§3.5 — the moment the queue runs empty, every partially
// aggregated packet is flushed to the stack so that no packet ever waits
// while the stack is idle.
//
// In the multi-queue RSS pipeline there is one ReceivePath per receive
// queue (NewOnCPU), pinned to the queue's CPU. Each path owns its own
// aggregation engine, so aggregation state is shard-local: RSS guarantees
// a flow's frames all arrive on one queue, hence one engine ever holds a
// given flow's pending aggregate and no cross-CPU synchronization exists
// anywhere on the receive path.
//
// Acknowledgment Offload needs no pump of its own: templates are built by
// the TCP layer (internal/tcp) and expanded by the driver
// (internal/driver, internal/ackoff); this package's role there is the
// configuration knob that enables it alongside aggregation (§4.3: the two
// are designed to be used together, since aggregation is what creates the
// batched ACK opportunity).
package core

import (
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/nic"
	"repro/internal/rss"
	"repro/internal/softirq"
)

// Options selects the optimized receive path's parameters.
type Options struct {
	// Aggregation configures the Receive Aggregation engine.
	Aggregation aggregate.Config
	// AckOffload enables ACK template generation in the TCP layer.
	AckOffload bool
	// QueueCapacity sizes the raw aggregation queue (frames).
	QueueCapacity int
}

// DefaultOptions mirrors the paper's evaluated configuration: Aggregation
// Limit 20 with ACK offload on.
func DefaultOptions() Options {
	return Options{
		Aggregation:   aggregate.DefaultConfig(),
		AckOffload:    true,
		QueueCapacity: 4096,
	}
}

// ReceivePath is the optimized softirq receive path for one CPU.
type ReceivePath struct {
	opts   Options
	ctx    *softirq.Context[nic.Frame]
	engine *aggregate.Engine
}

// New builds a CPU-0 receive path delivering host packets to out.
func New(opts Options, m *cycles.Meter, p *cost.Params, alloc *buf.Allocator,
	out func(*buf.SKB)) (*ReceivePath, error) {
	return NewOnCPU(0, opts, m, p, alloc, out)
}

// NewOnCPU builds the receive path owned by the given CPU: its softirq
// context, aggregation queue and aggregation engine all belong to that
// CPU alone.
func NewOnCPU(cpu int, opts Options, m *cycles.Meter, p *cost.Params, alloc *buf.Allocator,
	out func(*buf.SKB)) (*ReceivePath, error) {
	if out == nil {
		return nil, fmt.Errorf("core: out must not be nil")
	}
	if opts.QueueCapacity <= 0 {
		return nil, fmt.Errorf("core: QueueCapacity %d must be positive", opts.QueueCapacity)
	}
	ctx, err := softirq.NewContext[nic.Frame](cpu, opts.QueueCapacity)
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
	return &ReceivePath{opts: opts, ctx: ctx, engine: eng}, nil
}

// Options returns the path's configuration.
func (rp *ReceivePath) Options() Options { return rp.opts }

// CPU returns the CPU that owns this path.
func (rp *ReceivePath) CPU() int { return rp.ctx.CPU() }

// Engine exposes the aggregation engine (stats, tests).
func (rp *ReceivePath) Engine() *aggregate.Engine { return rp.engine }

// Context exposes the softirq context (stats, tests).
func (rp *ReceivePath) Context() *softirq.Context[nic.Frame] { return rp.ctx }

// EnqueueRaw is the driver-side producer (interrupt context): it drops the
// raw frame into the per-CPU aggregation queue. It reports false when the
// queue is full, in which case the driver counts a drop — the same
// behaviour as a softirq backlog overflow in Linux.
func (rp *ReceivePath) EnqueueRaw(f nic.Frame) bool {
	return rp.ctx.Enqueue(f)
}

// QueueLen returns the number of raw frames awaiting aggregation.
func (rp *ReceivePath) QueueLen() int { return rp.ctx.Len() }

// Process consumes up to budget raw frames from the queue through the
// aggregation engine. When the queue runs empty — before or at the budget —
// all partial aggregates are flushed (work conservation, §3.5): control
// returns with nothing pending unless the budget was exhausted first.
//
// It returns the number of frames consumed.
func (rp *ReceivePath) Process(budget int) int {
	return rp.ctx.Run(budget)
}

// Flush forces delivery of all partial aggregates regardless of queue
// state (used at shutdown and by tests).
func (rp *ReceivePath) Flush() { rp.engine.FlushAll() }

// FlushFlow drains flow k's pending aggregate from every given path — it
// lives in at most one, but which one depends on steering history, so all
// are swept. The front end's per-flow steering handoff (aRFS program,
// rule eviction, rule removal) calls it before frames can arrive on
// another queue, so no aggregate spans the migration boundary.
func FlushFlow(rps []*ReceivePath, k rss.FlowKey) {
	for _, rp := range rps {
		rp.FlushWhere(func(pk rss.FlowKey) bool { return pk == k })
	}
}

// FlushWhere drains the partial aggregates whose flow key satisfies pred
// — the migration-handoff half of dynamic flow steering: before a bucket
// or flow is re-steered to another CPU, the old owner's pending state for
// it is delivered, so no aggregate spans the migration boundary. It
// returns the number of aggregates flushed.
func (rp *ReceivePath) FlushWhere(pred func(rss.FlowKey) bool) int {
	return rp.engine.FlushWhere(pred)
}
