// Package nondeterminism implements the simlint analyzer enforcing the
// repository's core replay invariant: a simulator run is a pure function
// of its StreamConfig. Four classes of construct break that silently and
// are forbidden in the deterministic package set:
//
//   - wall-clock reads and real timers (time.Now, time.Since, time.Sleep,
//     timer constructors) — simulated time only ever advances through
//     sim.Sim's virtual clock;
//   - the process-global math/rand PRNG — randomness must come from a
//     seeded generator constructed from config (see the seededrand
//     analyzer for the seed-flow check);
//   - iteration over a map whose loop body is order-sensitive: schedules
//     events, charges cycles/memory accounting, emits telemetry, appends
//     to an output slice, or writes state where the last writer wins. Go
//     randomizes map iteration order per process, so any such loop makes
//     two runs of the same config diverge — the classic Go replay-breaker;
//   - goroutines: a go statement, or an import of package sync (whose
//     only purpose is coordinating goroutines). A run executes on one
//     serial event loop; host threads would make the interleaving of
//     simulated effects depend on the Go scheduler. Independent runs
//     execute in parallel from outside the simulator (rxbench -parallel).
//
// Order-insensitive map-loop bodies are recognized and allowed: integer
// accumulation (n += len(v) and friends — commutative on integers, unlike
// floats), writes keyed by the range key (dst[k] = f(v) hits each key
// once), and deletes from the ranged map (sanctioned by the spec).
//
// The escape hatch is the //simlint:sorted annotation on the line of (or
// immediately above) the range statement, followed by a justification.
// It is accepted only for collect-then-sort loops: the body may do nothing
// order-sensitive beyond appending to slices, and every such slice must be
// passed to a sort (sort.* / slices.Sort*) later in the same function.
package nondeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/astcheck"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/simlintcfg"
)

// Analyzer is the nondeterminism analyzer.
var Analyzer = &framework.Analyzer{
	Name: "nondeterminism",
	Doc: "forbid wall-clock reads, global math/rand, order-sensitive map iteration and goroutines in simulator packages\n\n" +
		"The simulator's replay invariant requires every run to be a pure function of its StreamConfig.",
	Run: run,
}

// wallClockFuncs are the package time functions that read host time or
// arm real timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand functions that build an explicitly
// seeded generator; they are the seededrand analyzer's business, not ours.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true,
	"NewChaCha8": true,
}

func run(pass *framework.Pass) (interface{}, error) {
	if !simlintcfg.IsDeterministic(pass.ModulePath, pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			if imp.Path.Value == `"sync"` {
				pass.Reportf(imp.Pos(),
					"package sync coordinates goroutines; a simulator run executes on one serial event loop, so its packages share no state across threads [nondeterminism]")
			}
		}
		// Wall-clock and global-rand calls and go statements are
		// forbidden anywhere in the file, including package-level
		// variable initializers.
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, x)
			case *ast.GoStmt:
				pass.Reportf(x.Pos(),
					"go statement spawns a goroutine; a simulator run executes on one serial event loop so its schedule cannot depend on the Go scheduler (run independent configs in parallel from outside, like rxbench -parallel) [nondeterminism]")
			}
			return true
		})
		annotations := sortedAnnotations(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, annotations)
		}
	}
	return nil, nil
}

// annotation is one parsed //simlint:sorted comment.
type annotation struct {
	justification string
	pos           token.Pos
}

// sortedAnnotations maps source lines to the //simlint:sorted annotation
// that governs them: an annotation on line N governs range statements on
// line N (trailing comment) and line N+1 (preceding line).
func sortedAnnotations(fset *token.FileSet, file *ast.File) map[int]annotation {
	out := make(map[int]annotation)
	marker := strings.TrimPrefix(simlintcfg.SortedAnnotation, "//")
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, marker) {
				continue
			}
			a := annotation{
				justification: strings.TrimSpace(strings.TrimPrefix(text, marker)),
				pos:           c.Pos(),
			}
			line := fset.Position(c.Pos()).Line
			out[line] = a
			out[line+1] = a
		}
	}
	return out
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl, annotations map[int]annotation) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok {
			checkRange(pass, fd, rng, annotations)
		}
		return true
	})
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := astcheck.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch astcheck.FuncPkgPath(fn) {
	case "time":
		if wallClockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock or arms a real timer; simulator packages advance time only through the virtual clock (sim.Sim) so runs replay bit-identically [nondeterminism]",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"math/rand.%s draws from the process-global PRNG; use a generator seeded from config (LossConfig.Seed-style) so runs replay bit-identically [nondeterminism]",
				fn.Name())
		}
	}
}

// violation classifies one order-sensitive operation in a map-range body.
type violation struct {
	pos    token.Pos
	what   string       // human description, e.g. "schedules events (Schedule)"
	append types.Object // non-nil iff the violation is an append to this slice
}

func checkRange(pass *framework.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, annotations map[int]annotation) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	viols := scanRangeBody(pass, rng)
	ann, annotated := annotations[pass.Fset.Position(rng.Pos()).Line]

	if !annotated {
		for _, v := range viols {
			pass.Reportf(v.pos,
				"map iteration order is randomized but this loop body %s; iterate sorted keys, restructure, or annotate the range with %s <justification> and sort what it collects [nondeterminism]",
				v.what, simlintcfg.SortedAnnotation)
		}
		return
	}

	// Annotated: the only excusable shape is collect-then-sort.
	if ann.justification == "" {
		pass.Reportf(rng.Pos(), "%s annotation requires a justification after the marker [nondeterminism]", simlintcfg.SortedAnnotation)
	}
	targets := map[types.Object]token.Pos{}
	for _, v := range viols {
		if v.append == nil {
			pass.Reportf(v.pos,
				"%s cannot excuse a map-range body that %s; only collect-then-sort loops may be annotated [nondeterminism]",
				simlintcfg.SortedAnnotation, v.what)
			continue
		}
		targets[v.append] = v.pos
	}
	for obj, pos := range targets {
		if !feedsSort(pass, fd, rng, obj) {
			pass.Reportf(pos,
				"annotated %s but %s is never passed to a sort after the loop in this function [nondeterminism]",
				simlintcfg.SortedAnnotation, obj.Name())
		}
	}
}

// scanRangeBody classifies every order-sensitive operation in the body of
// a map range statement.
func scanRangeBody(pass *framework.Pass, rng *ast.RangeStmt) []violation {
	info := pass.TypesInfo
	keyObj := rangeKeyObject(info, rng)
	rangedObj := astcheck.ExprObject(info, rng.X)

	var viols []violation
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if v, ok := classifyCall(pass, x, rng, keyObj, rangedObj); ok {
				viols = append(viols, v)
			}
		case *ast.AssignStmt:
			viols = append(viols, classifyAssign(pass, x, rng, keyObj)...)
		case *ast.IncDecStmt:
			if v, ok := classifyIncDec(pass, x, rng); ok {
				viols = append(viols, v)
			}
		}
		return true
	})
	return viols
}

func rangeKeyObject(info *types.Info, rng *ast.RangeStmt) types.Object {
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		return info.ObjectOf(id)
	}
	return nil
}

// classifyCall flags scheduling, accounting, and telemetry calls, plus
// order-sensitive deletes, inside a map-range body.
func classifyCall(pass *framework.Pass, call *ast.CallExpr, rng *ast.RangeStmt, keyObj, rangedObj types.Object) (violation, bool) {
	info := pass.TypesInfo
	if astcheck.IsBuiltin(info, call, "delete") && len(call.Args) == 2 {
		// delete(ranged, k) and delete(other, rangeKey) are keyed and fine;
		// deleting an unrelated key depends on visit order.
		m := astcheck.ExprObject(info, call.Args[0])
		if rangedObj != nil && m == rangedObj {
			return violation{}, false
		}
		if kid, ok := ast.Unparen(call.Args[1]).(*ast.Ident); ok && keyObj != nil && info.ObjectOf(kid) == keyObj {
			return violation{}, false
		}
		return violation{pos: call.Pos(), what: "deletes map entries not keyed by the range key"}, true
	}
	fn := astcheck.CalleeFunc(info, call)
	if fn == nil {
		return violation{}, false
	}
	if simlintcfg.SchedulerFuncNames[fn.Name()] {
		return violation{pos: call.Pos(), what: "schedules events (" + fn.Name() + ")"}, true
	}
	pkg := astcheck.FuncPkgPath(fn)
	if simlintcfg.IsPricing(pass.ModulePath, pkg) {
		return violation{pos: call.Pos(), what: "charges cycle/memory accounting (" + fn.Name() + ")"}, true
	}
	if simlintcfg.IsTelemetry(pass.ModulePath, pkg) {
		return violation{pos: call.Pos(), what: "emits telemetry (" + fn.Name() + ")"}, true
	}
	return violation{}, false
}

// classifyAssign flags writes to state declared outside the loop whose
// result depends on iteration order.
func classifyAssign(pass *framework.Pass, as *ast.AssignStmt, rng *ast.RangeStmt, keyObj types.Object) []violation {
	if as.Tok == token.DEFINE {
		return nil
	}
	info := pass.TypesInfo
	var viols []violation
	for i, lhs := range as.Lhs {
		root := astcheck.RootIdent(lhs)
		if root == nil {
			viols = append(viols, violation{pos: lhs.Pos(), what: "writes through a computed lvalue"})
			continue
		}
		if root.Name == "_" || astcheck.DeclaredWithin(info, root, rng.Pos(), rng.End()) {
			continue
		}
		// dst[k] = v keyed by the range key touches each key exactly once.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && keyObj != nil {
			if kid, ok := ast.Unparen(ix.Index).(*ast.Ident); ok && info.ObjectOf(kid) == keyObj {
				continue
			}
		}
		// Integer accumulation is commutative; float accumulation is not.
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
			if t := info.TypeOf(lhs); t != nil && astcheck.IsIntegerType(t) {
				continue
			}
			viols = append(viols, violation{pos: lhs.Pos(),
				what: "accumulates into a non-integer outside the loop (order-dependent rounding)"})
			continue
		}
		// x = append(x, ...) collecting into an outer slice: excusable
		// only under //simlint:sorted.
		if i < len(as.Rhs) {
			if call, ok := ast.Unparen(as.Rhs[minInt(i, len(as.Rhs)-1)]).(*ast.CallExpr); ok && astcheck.IsBuiltin(info, call, "append") {
				viols = append(viols, violation{pos: lhs.Pos(),
					what:   "appends map entries to a slice declared outside the loop",
					append: info.ObjectOf(root)})
				continue
			}
		}
		viols = append(viols, violation{pos: lhs.Pos(),
			what: "writes state declared outside the loop (last writer depends on iteration order)"})
	}
	return viols
}

func classifyIncDec(pass *framework.Pass, st *ast.IncDecStmt, rng *ast.RangeStmt) (violation, bool) {
	info := pass.TypesInfo
	root := astcheck.RootIdent(st.X)
	if root == nil {
		return violation{pos: st.Pos(), what: "writes through a computed lvalue"}, true
	}
	if astcheck.DeclaredWithin(info, root, rng.Pos(), rng.End()) {
		return violation{}, false
	}
	if t := info.TypeOf(st.X); t != nil && astcheck.IsIntegerType(t) {
		return violation{}, false // counting is commutative
	}
	return violation{pos: st.Pos(), what: "accumulates into a non-integer outside the loop (order-dependent rounding)"}, true
}

// feedsSort reports whether obj (a slice collected inside rng) appears in
// a sort call after the loop within fd.
func feedsSort(pass *framework.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		fn := astcheck.CalleeFunc(info, call)
		if fn == nil {
			return true
		}
		pkg := astcheck.FuncPkgPath(fn)
		isSort := pkg == "sort" || pkg == "slices" || strings.HasPrefix(fn.Name(), "Sort")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if astcheck.UsesObject(info, arg, obj) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
