package netstack

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
)

// benchKey is the i'th key of the connscale idle population's addressing
// (60k source ports per remote host, one local listener).
func benchKey(i int) FlowKey {
	ipIdx := i / 60000
	return FlowKey{
		Src:     ipv4.Addr{172, byte(16 + ipIdx/256), byte(ipIdx % 256), 1},
		Dst:     ipv4.Addr{172, 16, 0, 2},
		SrcPort: uint16(1024 + i%60000),
		DstPort: 8080,
	}
}

// benchTable returns a priced default-shard open table, as a stack arms it.
func benchTable(b *testing.B) *FlowTable {
	b.Helper()
	tab, err := NewFlowTable(0)
	if err != nil {
		b.Fatal(err)
	}
	p := cost.NativeUP()
	tab.SetPricing(&cycles.Meter{}, &p)
	return tab
}

const bench1M = 1_000_000

// BenchmarkFlowTableInsert1M times per-key Insert while filling tables to
// 1M entries, a fresh table every 1M keys (built with the timer stopped):
// ns, bytes and allocs per key, growth included.
func BenchmarkFlowTableInsert1M(b *testing.B) {
	ep := testEndpoint(&testing.T{}, 5001, 44000)
	var tab *FlowTable
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%bench1M == 0 {
			b.StopTimer()
			tab = benchTable(b)
			b.StartTimer()
		}
		if err := tab.Insert(benchKey(i%bench1M), ep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBatch1M times InsertBatch on the same key stream, in
// batches of up to 1M keys into fresh tables: per-key figures comparable
// to BenchmarkFlowTableInsert1M's.
func BenchmarkInsertBatch1M(b *testing.B) {
	ep := testEndpoint(&testing.T{}, 5001, 44000)
	b.ReportAllocs()
	for done := 0; done < b.N; {
		n := min(b.N-done, bench1M)
		b.StopTimer()
		tab := benchTable(b)
		b.StartTimer()
		if err := tab.InsertBatch(n, benchKey, ep); err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

// benchFilled returns a priced table holding keys 0..n-1.
func benchFilled(b *testing.B, n int) *FlowTable {
	b.Helper()
	tab := benchTable(b)
	if err := tab.InsertBatch(n, benchKey, testEndpoint(&testing.T{}, 5001, 44000)); err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkTableStats1M times the end-of-run structure summary over a
// 1M-entry table.
func BenchmarkTableStats1M(b *testing.B) {
	tab := benchFilled(b, bench1M)
	b.ReportAllocs()
	for b.Loop() {
		if ts := tab.TableStats(); ts.Entries != bench1M {
			b.Fatalf("entries %d", ts.Entries)
		}
	}
}

// BenchmarkFlowTableLookup times one priced demux lookup of a resident key
// at 10k and 1M registered entries, hopping through the key space with a
// stride coprime to it so consecutive lookups land on unrelated slots.
func BenchmarkFlowTableLookup(b *testing.B) {
	for _, n := range []int{10_000, bench1M} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			tab := benchFilled(b, n)
			b.ReportAllocs()
			j := 0
			for b.Loop() {
				if tab.Lookup(benchKey(j), 0, 1, false) == nil {
					b.Fatalf("key %d missing", j)
				}
				if j += 7919; j >= n {
					j -= n
				}
			}
		})
	}
}

// BenchmarkFlowTableChurn1M times one priced Remove and re-Insert of a
// resident key in a 1M-entry table, hopping through the key space like
// BenchmarkFlowTableLookup: a backward-shift delete and a robin-hood
// insert on cold slots. The key comes back for the population's own
// endpoint, whose handle it rejoins, so the table neither grows nor
// allocates (TestChurnAllocFree pins a fresh endpoint's turnover).
func BenchmarkFlowTableChurn1M(b *testing.B) {
	ep := testEndpoint(&testing.T{}, 5001, 44000)
	tab := benchTable(b)
	if err := tab.InsertBatch(bench1M, benchKey, ep); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	j := 0
	for b.Loop() {
		k := benchKey(j)
		if !tab.Remove(k) {
			b.Fatalf("key %d missing", j)
		}
		if err := tab.Insert(k, ep); err != nil {
			b.Fatal(err)
		}
		if j += 7919; j >= bench1M {
			j -= bench1M
		}
	}
}
