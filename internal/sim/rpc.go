package sim

import (
	"fmt"

	"repro/internal/ipv4"
	"repro/internal/tcp"
)

// This file holds the two request/response workloads: netperf TCP RR
// (RunRR, paper §5.4, Table 1) and the incast driver (StreamConfig.RPC).
// Both run on the stream topology.
//
// The incast workload:
// the receiver machine — the system under test — issues synchronized
// request bursts to many senders, one connection per sender, and every
// sender answers at once with a MessageBytes response. The responses
// converge on the receiver's NICs simultaneously (the incast pattern), so
// the burst's last message queues behind fan-in−1 others on the shared
// wire and in the receive path; the per-message RTT distribution the
// telemetry collector records is therefore a direct latency probe of the
// receive path under fan-in pressure (tail grows with fan-in).
//
// The ping-pong self-clocks exactly like netperf RR (RunRR): each
// response carries the cumulative ACK of the request that triggered it,
// and each next request ACKs the previous response, so progress never
// waits on a delayed-ACK timer. A global poll event checks burst
// completion; it only gates when the *next* burst fires — RTTs are
// measured from the burst instant itself, so poll quantization never
// inflates a sample.

// rpcConn is one fan-in connection of the incast workload.
type rpcConn struct {
	rep *tcp.Endpoint // receiver-side endpoint (issues the requests)

	// reqSentNs is the burst instant (written by the burst event, read
	// when the response completes). got/done accumulate the response as
	// the owner CPU delivers it; the completion poll reads done. reqGot
	// counts the request bytes the sender has read toward its next
	// response.
	reqSentNs uint64
	got       uint64
	done      bool
	reqGot    uint64
}

// rpcDriver owns the incast workload's connections and burst machinery.
type rpcDriver struct {
	top      *streamTopology
	msgBytes int
	conns    []rpcConn // one slab, one record per connection
	// rounds counts completed bursts (every connection's response fully
	// read) over the whole run.
	rounds uint64
}

const (
	// rpcPollNs is the incast's burst-completion poll period: 50 µs.
	rpcPollNs = 50_000
	// rpcRequestBytes is the size of every request the receiver sends.
	rpcRequestBytes = 64
)

// newRPCDriver opens the fan-in connections, fires the first burst and
// arms the completion poll. cfg is resolved, so MessageBytes is set.
func newRPCDriver(top *streamTopology, cfg *StreamConfig) (*rpcDriver, error) {
	r := &rpcDriver{
		top:      top,
		msgBytes: cfg.RPC.MessageBytes,
		conns:    make([]rpcConn, cfg.Connections),
	}
	top.reserve(cfg.Connections)
	for c := 0; c < cfg.Connections; c++ {
		if err := r.openConn(c); err != nil {
			return nil, err
		}
	}
	r.fireBurst()
	top.sim.After(rpcPollNs, r)
	return r, nil
}

// openConn wires fan-in connection c: the flowGen addressing scheme
// (sender 10.0.<n>.1 on NIC n = c mod NICs), a sender endpoint that
// echoes requests with responses, and a receiver endpoint that issues
// requests and measures each response's RTT on arrival.
func (r *rpcDriver) openConn(c int) error {
	top, cfg := r.top, r.top.cfg
	n := c % cfg.NICs
	port := c / cfg.NICs
	if 5001+port >= churnSenderPortBase || 44000+port >= churnReceiverPortBase {
		return fmt.Errorf("sim: RPC connection %d exceeds the per-link port range", c)
	}
	senderIP := ipv4.Addr{10, 0, byte(n), 1}
	rcvIP := ipv4.Addr{10, 0, byte(n), 2}
	sPort, rPort := uint16(5001+port), uint16(44000+port)

	sep, err := top.senders[n].AddConn(senderIP, rcvIP, sPort, rPort)
	if err != nil {
		return err
	}

	rep, _, err := top.openReceiver(senderIP, rcvIP, sPort, rPort)
	if err != nil {
		return err
	}

	conn := &r.conns[c]
	conn.rep = rep

	// Sender application: one MessageBytes response per complete request.
	// No explicit link kick is needed — the sender machine kicks the link
	// after every received frame, and the response data carries the
	// request's ACK (the RunRR pattern).
	req, msg := uint64(rpcRequestBytes), uint64(r.msgBytes)
	sep.AppSink = func(b []byte) {
		conn.reqGot += uint64(len(b))
		for conn.reqGot >= req {
			conn.reqGot -= req
			sep.AppWrite(msg)
		}
	}

	// Receiver application: accumulate the response on the owner CPU; the
	// byte that completes the message defines its RTT. stampNow is the
	// same clock the stage stamps use, so the sample lands at the instant
	// the socket read returns in simulated time.
	col, cs := top.col, top.cpu
	rep.AppSink = func(b []byte) {
		if conn.done {
			return
		}
		conn.got += uint64(len(b))
		if conn.got >= msg {
			conn.done = true
			col.RecordRTT(cs.stampNow() - conn.reqSentNs)
		}
	}
	return nil
}

// fireBurst issues one request on every connection at the current
// instant. It runs at construction time or from the completion poll, never
// inside a softirq round, so every request of the burst carries the same
// send time.
func (r *rpcDriver) fireBurst() {
	now := r.top.sim.Now()
	for i := range r.conns {
		c := &r.conns[i]
		c.got, c.done = 0, false
		c.reqSentNs = now
		c.rep.AppWrite(rpcRequestBytes)
		for c.rep.SendDataSKB(0) {
		}
	}
}

// fire is the completion poll: it fires the next burst once every
// connection has fully read its response, then re-arms itself.
func (r *rpcDriver) fire() {
	all := true
	for i := range r.conns {
		if !r.conns[i].done {
			all = false
			break
		}
	}
	if all {
		r.rounds++
		r.fireBurst()
	}
	r.top.sim.After(rpcPollNs, r)
}

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

// RunRR executes one request/response experiment on a one-link stream
// topology: the link's sender machine is the client, a receiver endpoint
// the server.
func RunRR(cfg RRConfig) (RRResult, error) {
	if cfg.DurationNs == 0 {
		cfg.DurationNs = 400_000_000
	}
	top, err := newTopology(&StreamConfig{System: cfg.System, Opt: cfg.Opt, NICs: 1})
	if err != nil {
		return RRResult{}, err
	}
	clientIP, serverIP := ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}
	clientEP, err := top.senders[0].AddConn(clientIP, serverIP, 5001, 44000)
	if err != nil {
		return RRResult{}, err
	}
	serverEP, _, err := top.openReceiver(clientIP, serverIP, 5001, 44000)
	if err != nil {
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
	link := top.links[0]
	clientEP.AppSink = func(b []byte) {
		transactions += uint64(len(b))
		clientEP.AppWrite(1)
		link.Kick()
	}

	// First request, then the timer sweep — finer than the stream's:
	// sub-millisecond stalls would distort the latency metric.
	clientEP.AppWrite(1)
	top.start(1_000_000)

	s, machine := top.sim, top.machine
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
