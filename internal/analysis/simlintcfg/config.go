// Package simlintcfg names the package sets and domain vocabulary the
// simlint analyzers share, in one place: which packages must be
// deterministic, which command-line tools are exempt (and why), which
// packages constitute the pricing layer, which structures are priced, and
// where the per-frame hot path enters.
//
// Every scope decision is expressed as a module-relative path fragment
// ("internal/sim", "cmd/rxbench") and matched against the suffix of a
// package path after the module path, so analysistest fixtures under a
// fake module exercise exactly the production scoping logic.
package simlintcfg

import "strings"

// DeterministicPackages lists the module-relative packages whose execution
// must replay bit-identically from a StreamConfig: the simulator core and
// everything it is built from. Within these packages the nondeterminism,
// seededrand and chargedpath analyzers are active. The list deliberately
// names prefixes: "internal/sim" covers internal/sim and any future
// sub-packages.
var DeterministicPackages = []string{
	"internal/ackoff",
	"internal/aggregate",
	"internal/buf",
	"internal/checksum",
	"internal/core",
	"internal/cost",
	"internal/cycles",
	"internal/driver",
	"internal/ether",
	"internal/frontend",
	"internal/ipv4",
	"internal/memmodel",
	"internal/netstack",
	"internal/nic",
	"internal/packet",
	"internal/paper",
	"internal/profile",
	"internal/rss",
	"internal/sim",
	"internal/softirq",
	"internal/tcp",
	"internal/tcpwire",
	"internal/telemetry",
	"internal/xenvirt",
}

// WallClockExemptPackages lists command-line tools allowed to read the
// wall clock and host entropy: they wrap the simulator for humans
// (profiling flags, benchmark timing, trace file naming) and none of their
// wall-clock reads can flow into simulated state, which only ever advances
// through sim.Sim's virtual clock. The exemption-list test pins this list
// against the actual cmd/ directory so a new CLI must make an explicit
// choice.
var WallClockExemptPackages = []string{
	"cmd/rxbench",       // -cpuprofile/-memprofile wall timing, bench tables
	"cmd/rxtrace",       // synthetic-burst narration and trace file output
	"cmd/simlint",       // the linter itself (os/exec, file IO)
	"examples",          // quickstart programs, not simulator state
	"internal/analysis", // the analyzers read source trees, not sim state
}

// PricingPackages are the accounting layer: every cycle and memory charge
// flows through them. The zeroperturbation analyzer forbids the telemetry
// package from reaching them; the chargedpath analyzer treats any call
// into them as a charge.
var PricingPackages = []string{
	"internal/cycles",
	"internal/memmodel",
}

// TelemetryPackage is the observation layer bound by the PR 8
// zero-perturbation contract: it may read clocks (values handed to it) but
// must never schedule events, charge cycles or memory costs, or import the
// machinery that could.
const TelemetryPackage = "internal/telemetry"

// SchedulerFuncNames are method/function names that schedule simulator
// events: sim.Sim's Schedule and After, which take a handler (any record
// with a fire method). The analyzers match by name, whatever the handler's
// type, so a call through an interface counts too. Calling one from
// telemetry code, or from inside an unordered map iteration, breaks replay
// determinism.
var SchedulerFuncNames = map[string]bool{
	"Schedule": true,
	"After":    true,
}

// PricedTypes names structures whose touches are priced through
// cycles/memmodel: module-relative package fragment → type names. A
// hot-path function that accesses fields of one of these must charge, or
// be called from something that charges (chargedpath analyzer).
var PricedTypes = map[string][]string{
	"internal/netstack":  {"FlowTable", "flowShard", "flowSlot", "epRef", "timeWaitTable", "twEntry"},
	"internal/aggregate": {"Engine"},
	"internal/tcp":       {"Endpoint"},
}

// HotPathRoots names the entry points of the per-frame receive path:
// module-relative package fragment → function or Type.Method names. The
// chargedpath analyzer walks the static call graph from these roots.
var HotPathRoots = map[string][]string{
	"internal/driver":    {"Driver.Poll"},
	"internal/frontend":  {"FrontEnd.Poll"},
	"internal/netstack":  {"Stack.InputOn"},
	"internal/aggregate": {"Engine.Input"},
	"internal/tcp":       {"Endpoint.Input"},
	"internal/xenvirt":   {"Machine.bridgeReceive"},
}

// SortedAnnotation is the escape hatch marker for map iterations whose
// collected results are sorted before use. It must be followed by a
// justification and the loop must provably feed a sort (see the
// nondeterminism analyzer).
const SortedAnnotation = "//simlint:sorted"

// Rel returns pkgPath relative to modulePath ("" for the module root
// package) and whether pkgPath belongs to the module.
func Rel(modulePath, pkgPath string) (string, bool) {
	if pkgPath == modulePath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(pkgPath, modulePath+"/"); ok {
		return rest, true
	}
	return "", false
}

// matchFragment reports whether rel equals frag or lives under it.
func matchFragment(rel, frag string) bool {
	return rel == frag || strings.HasPrefix(rel, frag+"/")
}

// IsDeterministic reports whether pkgPath (under modulePath) is in the
// deterministic set.
func IsDeterministic(modulePath, pkgPath string) bool {
	rel, ok := Rel(modulePath, pkgPath)
	if !ok {
		return false
	}
	for _, e := range WallClockExemptPackages {
		if matchFragment(rel, e) {
			return false
		}
	}
	for _, d := range DeterministicPackages {
		if matchFragment(rel, d) {
			return true
		}
	}
	return false
}

// IsPricing reports whether pkgPath is part of the accounting layer.
func IsPricing(modulePath, pkgPath string) bool {
	rel, ok := Rel(modulePath, pkgPath)
	if !ok {
		return false
	}
	for _, p := range PricingPackages {
		if matchFragment(rel, p) {
			return true
		}
	}
	return false
}

// IsTelemetry reports whether pkgPath is the telemetry package (or a
// sub-package of it).
func IsTelemetry(modulePath, pkgPath string) bool {
	rel, ok := Rel(modulePath, pkgPath)
	if !ok {
		return false
	}
	return matchFragment(rel, TelemetryPackage)
}

// PricedTypeNames returns the priced type names for pkgPath, or nil.
func PricedTypeNames(modulePath, pkgPath string) []string {
	rel, ok := Rel(modulePath, pkgPath)
	if !ok {
		return nil
	}
	return PricedTypes[rel]
}

// RootNames returns the hot-path root names declared in pkgPath, or nil.
func RootNames(modulePath, pkgPath string) []string {
	rel, ok := Rel(modulePath, pkgPath)
	if !ok {
		return nil
	}
	return HotPathRoots[rel]
}
