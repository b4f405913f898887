package sim

import (
	"fmt"

	"repro/internal/ipv4"
	"repro/internal/tcp"
)

// RRConfig describes a netperf TCP Request/Response experiment (paper
// §5.4, Table 1): a client sends a one-byte request, the server replies
// with a one-byte response, and the client immediately issues the next
// request. The metric is sustained transactions per second.
type RRConfig struct {
	// System selects the receiver (server) machine.
	System SystemKind
	// Opt selects the server's receive-path variant.
	Opt OptLevel
	// DurationNs is the measured interval.
	DurationNs uint64
	// WarmupNs precedes measurement.
	WarmupNs uint64
}

// DefaultRRConfig mirrors the paper's latency check.
func DefaultRRConfig(system SystemKind, opt OptLevel) RRConfig {
	return RRConfig{
		System:     system,
		Opt:        opt,
		DurationNs: 400_000_000,
		WarmupNs:   50_000_000,
	}
}

// RRResult reports one request/response run.
type RRResult struct {
	// RequestsPerSec is the sustained transaction rate.
	RequestsPerSec float64
	// Transactions is the count completed in the measured interval.
	Transactions uint64
	// AggFactor should stay 1.0: with one packet at a time there is
	// nothing to aggregate, and work conservation must not delay it.
	AggFactor float64
}

// RunRR executes one request/response experiment.
func RunRR(cfg RRConfig) (RRResult, error) {
	if cfg.DurationNs == 0 {
		cfg.DurationNs = 400_000_000
	}
	streamCfg := StreamConfig{
		System: cfg.System,
		Opt:    cfg.Opt,
		NICs:   1,
	}
	s := NewSim()
	machine, err := buildMachine(&streamCfg, s, nil)
	if err != nil {
		return RRResult{}, err
	}
	cpu := newCPUSet(s, machine)

	clientIP := ipv4.Addr{10, 0, 0, 1}
	serverIP := ipv4.Addr{10, 0, 0, 2}

	client := NewSender(s, 0)
	client.SetPool(machine.AllocRef().Pool())
	link := NewLink(s, client, machine.NICs()[0])
	machine.WireInterrupts(cpu.kick)
	machine.NICs()[0].OnTransmit = nicReverse(link, cpu)

	clientEP, err := client.AddConn(clientIP, serverIP, 5001, 44000)
	if err != nil {
		return RRResult{}, err
	}

	scfg := tcp.DefaultConfig()
	scfg.LocalIP, scfg.RemoteIP = serverIP, clientIP
	scfg.LocalPort, scfg.RemotePort = 44000, 5001
	scfg.AckOffload = cfg.Opt == OptFull
	serverEP, err := tcp.New(scfg, machine.MeterRef(), machine.ParamsRef(),
		machine.AllocRef(), s.Clock())
	if err != nil {
		return RRResult{}, err
	}
	if err := machine.RegisterEndpoint(serverEP, clientIP, serverIP, 5001, 44000); err != nil {
		return RRResult{}, err
	}

	// Server application: one response byte per request byte, written
	// back immediately (the response carries the ACK).
	serverEP.AppSink = func(b []byte) {
		serverEP.AppWrite(uint64(len(b)))
		for serverEP.SendDataSKB(1) {
		}
	}

	// Client application: count a transaction per response byte and
	// issue the next request.
	var transactions uint64
	clientEP.AppSink = func(b []byte) {
		transactions += uint64(len(b))
		clientEP.AppWrite(1)
		link.Kick()
	}

	// Timer sweep (finer than the stream's: sub-millisecond stalls
	// would distort the latency metric).
	const sweepNs = 1_000_000
	var sweep func()
	sweep = func() {
		now := s.Now()
		for _, ep := range machine.Endpoints() {
			if d := ep.NextTimeout(); d != 0 && now >= d {
				ep.OnTimeout(now)
			}
		}
		client.FireTimers(now)
		cpu.kickAll()
		s.After(sweepNs, sweep)
	}
	s.After(sweepNs, sweep)

	// First request.
	clientEP.AppWrite(1)
	link.Kick()

	s.RunUntil(cfg.WarmupNs)
	startTx := transactions
	startFrames := machine.NetFramesIn()
	startHost := machine.HostPacketsIn()
	s.RunUntil(cfg.WarmupNs + cfg.DurationNs)

	res := RRResult{
		Transactions:   transactions - startTx,
		RequestsPerSec: float64(transactions-startTx) / (float64(cfg.DurationNs) / 1e9),
	}
	if host := machine.HostPacketsIn() - startHost; host > 0 {
		res.AggFactor = float64(machine.NetFramesIn()-startFrames) / float64(host)
	}
	if res.Transactions == 0 {
		return res, fmt.Errorf("sim: request/response made no progress")
	}
	return res, nil
}
