// Xen guest: the virtualization case (paper §2.4, Figures 6 and 10). A
// Linux guest's receive path crosses the driver domain's bridge, netback,
// the hypervisor's grant copies, and netfront before reaching the guest
// stack — per-packet costs three times the native ones. This example shows
// where the cycles go and what driver-domain aggregation recovers.
//
//	go run ./examples/xenguest
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/paper"
)

func main() {
	log.SetFlags(0)

	orig, err := repro.RunStream(repro.DefaultStreamConfig(repro.SystemXen, repro.OptNone))
	if err != nil {
		log.Fatal(err)
	}
	opt, err := repro.RunStream(repro.DefaultStreamConfig(repro.SystemXen, repro.OptFull))
	if err != nil {
		log.Fatal(err)
	}

	paperOrig, paperOpt := paper.Get("fig7/mbps/xen-orig").Paper, paper.Get("fig7/mbps/xen-opt").Paper
	fmt.Printf("guest receive throughput: %.0f -> %.0f Mb/s (%+.0f%%; paper: %.0f -> %.0f, %+.0f%%)\n",
		orig.ThroughputMbps, opt.ThroughputMbps, (opt.ThroughputMbps/orig.ThroughputMbps-1)*100,
		paperOrig, paperOpt, (paperOpt/paperOrig-1)*100)
	fmt.Printf("CPU-scaled gain: %+.0f%% (paper: %+.0f%%)\n\n",
		(orig.CyclesPerPacket/opt.CyclesPerPacket-1)*100, paper.Get("fig7/cpu-scaled/xen").Paper)

	fmt.Print(repro.FormatComparison(
		"virtualized receive path, cycles per network packet:",
		orig.Breakdown, opt.Breakdown, true))

	fmt.Printf("\naggregation factor in the driver domain: %.1f\n", opt.AggFactor)
	fmt.Println("note the netback/netfront columns: they fall less than the")
	fmt.Println("stack categories because the paravirtual drivers and grant")
	fmt.Println("copies keep a per-fragment cost (paper §5.1).")
}
