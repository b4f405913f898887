package sim

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/frontend"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/rss"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// Machine is the interface the simulation drives: implemented by the
// native receiver below and by xenvirt.Machine.
type Machine interface {
	NICs() []*nic.NIC
	// CPUs returns the number of softirq CPUs (= RSS queues per NIC).
	CPUs() int
	// ProcessRound runs one softirq round on the given CPU with the
	// given per-queue poll budget. It returns the number of network
	// frames consumed and whether any driver on that CPU exhausted its
	// budget (NAPI keeps such drivers on the poll list: the CPU must run
	// another round without waiting for an interrupt).
	ProcessRound(cpu, budget int) (frames int, more bool)
	// WireInterrupts routes per-queue NIC interrupts through the
	// machine's NAPI poll lists to the CPU scheduler's kick function
	// (queue q of any NIC kicks CPU q).
	WireInterrupts(kick func(cpu int))
	MeterRef() *cycles.Meter
	AllocRef() *buf.Allocator
	ParamsRef() *cost.Params
	// ReceivePaths returns every CPU's optimized aggregation path (nil
	// slice on baseline paths) — engine stats, flush-reason taxonomy and
	// resequencing-window counters.
	ReceivePaths() []*core.ReceivePath
	// FlowTable exposes the receiving stack's sharded demux table
	// (per-shard stats: flows, demux hits, steals).
	FlowTable() *netstack.FlowTable
	// Netstack exposes the receiving stack itself (steering hooks,
	// TIME_WAIT reaping).
	Netstack() *netstack.Stack
	// SteerMap returns the live bucket→CPU steering map that defines
	// shard ownership (shared with the NIC indirection natively; the
	// netback channel map on Xen). Never nil.
	SteerMap() *rss.Map
	// SteerTargets returns the number of CPUs steering may target —
	// valid bucket owners and application CPUs. Natively every softirq
	// CPU qualifies; on Xen only the guest vCPUs do (an asymmetric
	// machine with fewer vCPUs than dom0 queues has cores that run dom0
	// work only and can own no channel).
	SteerTargets() int
	// SteerBucket repoints bucket b to cpu: the machine drains the old
	// owner's pending aggregation state for the bucket's flows (so no
	// aggregate spans the migration boundary), then rewrites the
	// indirection everywhere it is consulted.
	SteerBucket(b, cpu int)
	// SteerFlow programs an exact-match aRFS rule steering flow k
	// (hashing to hash) onto cpu, overriding the indirection; it drains
	// pending aggregation state for the flow first. When the bounded
	// rule table evicts a victim to make room, the victim's key is
	// returned so the policy can forget it.
	SteerFlow(k netstack.FlowKey, hash uint32, cpu int) (evicted *netstack.FlowKey, err error)
	// UnsteerFlow removes flow k's exact-match steering rule (aRFS rule
	// aging): the flow reverts to its bucket's indirection, with the
	// same handoff as any re-steer — pending aggregation state drained,
	// ownership override cleared. No-op when no rule is programmed.
	UnsteerFlow(k netstack.FlowKey)
	RegisterEndpoint(ep *tcp.Endpoint, remoteIP, localIP [4]byte, remotePort, localPort uint16) error
	UnregisterEndpoint(remoteIP, localIP [4]byte, remotePort, localPort uint16)
	Endpoints() []*tcp.Endpoint
	HostPacketsIn() uint64
	NetFramesIn() uint64
	// SetTelemetry arms latency observation: stampClock(cpu) supplies the
	// simulated-ns stamp clock for work executing on that CPU, wired into
	// every driver, aggregation engine and the stack so frames carry their
	// stage-boundary times; when col is non-nil, endpoints registered from
	// then on record per-stage residencies into the shard of the CPU that
	// owns their flow. Observation only: stamping reads the clock, it
	// never charges a cycle or schedules an event.
	SetTelemetry(col *telemetry.Collector, stampClock func(cpu int) uint64)
}

// NativeMachine is a native Linux receiver host: the shared receive front
// end (frontend.FrontEnd) with driver output entering the host stack directly
// on the polling CPU.
type NativeMachine struct {
	frontend.FrontEnd
}

// NewNative assembles a native machine.
func NewNative(cfg frontend.Config) (*NativeMachine, error) {
	m := &NativeMachine{}
	if err := m.Init(cfg, nil, func(q int) func(*buf.SKB) { return m.Stack.InputOn(q) }); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return m, nil
}

// ProcessRound runs one softirq round on the given CPU: polls of that
// CPU's queue on every NIC, aggregation on that CPU's receive path, stack
// and endpoint processing, plus the per-frame misc (and SMP coherence)
// charges.
func (m *NativeMachine) ProcessRound(cpu, budget int) (int, bool) {
	frames, more := m.Poll(cpu, budget)
	if frames > 0 {
		misc := m.Params.MiscPerPacket
		if m.Params.SMP {
			misc += m.Params.SMPMiscExtra
		}
		m.Meter.Charge(cycles.Misc, uint64(frames)*misc)
	}
	return frames, more
}
