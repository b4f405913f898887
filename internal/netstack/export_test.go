package netstack

import "repro/internal/ipv4"

// TimeWaitHas reports whether the four-tuple lingers in TIME_WAIT
// (control-path check, no charge).
func (s *Stack) TimeWaitHas(remoteIP, localIP ipv4.Addr, remotePort, localPort uint16) bool {
	_, ok := s.tw.keys[FlowKey{Src: remoteIP, Dst: localIP, SrcPort: remotePort, DstPort: localPort}]
	return ok
}

// TimeWaitOccupancy returns the lingering-entry count per shard (a fresh
// slice; shard index matches the flow table's).
func (s *Stack) TimeWaitOccupancy() []int {
	occ := make([]int, s.tw.nShards)
	for i := range s.tw.shards {
		occ[i] = len(s.tw.shards[i])
	}
	return occ
}

// Occupancy returns the endpoint count per shard (a fresh slice).
func (t *FlowTable) Occupancy() []int {
	occ := make([]int, len(t.shards))
	for i := range t.shards {
		occ[i] = t.shards[i].used
	}
	return occ
}
