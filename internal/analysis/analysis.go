// Package analysis is cleansel's in-tree static-analysis suite: a
// stdlib-only driver (go/parser + go/types, no golang.org/x/tools) and
// four analyzers that turn the repo's determinism contract into checked
// policy.
//
// The contract the analyzers encode:
//
//   - maporder: in deterministic packages, a range over a map whose body
//     accumulates floats (+=, -=, *=, /=) or appends to a slice leaks the
//     randomized map iteration order into results — float addition is not
//     associative. Iterate numeric.SortedKeys (or extract and sort keys)
//     instead.
//   - floateq: outside internal/numeric, == / != / switch on float
//     operands is almost always a latent pooling bug; comparisons belong
//     on grid keys (numeric.Grid.Key) or numeric.AlmostEqual. Comparing
//     against a literal zero, ±math.Inf, or the operand itself (the NaN
//     idiom) is allowed.
//   - ctxflow: a function that holds a context.Context must not call a
//     blocking sibling when a ...Ctx / ...Context variant exists, and
//     library (non-main, non-test) code must not mint its own
//     context.Background / context.TODO — except in the standard blocking
//     shim `func Foo(..)` delegating to its own `FooCtx(context.Background(), ..)`.
//   - walltime: the deterministic engine packages (dist, ev, maxpr, expt,
//     core, numeric, obs) must not read wall-clock time (time.Now), the
//     global math/rand stream, or the process environment; randomness
//     flows through internal/rng split streams so every figure is
//     reproducible bit-for-bit. internal/obs is the one sanctioned clock package (its
//     clock file carries an allow directive); other engines may tick the
//     write-only obs.Recorder but must not touch obs.Clock, SystemClock,
//     fake clocks, or NewRecorder — clocks are injected at the server
//     boundary.
//
// Findings are suppressed per file with a mandatory-reason directive:
//
//	//lint:allow <check> — <reason>
//
// (an ASCII "--" separator is accepted too). A directive with a missing
// reason, an unknown check name, or no matching finding is itself a
// diagnostic, so suppressions cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ModulePath is the import path prefix of this repository's module; the
// package-scoped analyzers key their scope off it.
const ModulePath = "github.com/factcheck/cleansel"

// deterministicPkgs are the packages whose outputs feed figures, ranks,
// assessments, session recommendations and wire bytes (cache keys and
// dataset IDs), and therefore must be bit-identical run to run. The
// maporder analyzer applies here.
var deterministicPkgs = map[string]bool{
	ModulePath:                           true,
	ModulePath + "/internal/claims":      true,
	ModulePath + "/internal/core":        true,
	ModulePath + "/internal/datasets":    true,
	ModulePath + "/internal/dist":        true,
	ModulePath + "/internal/dist/oracle": true,
	ModulePath + "/internal/ev":          true,
	ModulePath + "/internal/expt":        true,
	ModulePath + "/internal/knapsack":    true,
	ModulePath + "/internal/linalg":      true,
	ModulePath + "/internal/maxpr":       true,
	ModulePath + "/internal/model":       true,
	ModulePath + "/internal/numeric":     true,
	ModulePath + "/internal/query":       true,
	ModulePath + "/internal/rel":         true,
	ModulePath + "/internal/rng":         true,
	ModulePath + "/internal/server/wire": true,
	ModulePath + "/internal/session":     true,
	ModulePath + "/internal/submod":      true,
}

// enginePkgs is the narrower set of deterministic *engine* packages where
// wall-clock time, the global math/rand stream, and environment reads are
// banned outright (the walltime analyzer). internal/obs is scanned as an
// engine package too: it is the one sanctioned place wall time enters the
// system (its clock file carries the mandatory //lint:allow walltime
// directive), and listing it here keeps any new ambient read in it an
// explicit, justified decision.
var enginePkgs = map[string]bool{
	ModulePath + "/internal/dist":        true,
	ModulePath + "/internal/dist/oracle": true,
	ModulePath + "/internal/ev":          true,
	ModulePath + "/internal/maxpr":       true,
	ModulePath + "/internal/expt":        true,
	ModulePath + "/internal/core":        true,
	ModulePath + "/internal/numeric":     true,
	ModulePath + "/internal/obs":         true,
}

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers lists every check in the suite, in report order.
var Analyzers = []*Analyzer{MapOrder, FloatEq, CtxFlow, WallTime}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string // package import path (drives package-scoped checks)
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its check.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// isFloat reports whether t's core type is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0 && b.Info()&types.IsComplex == 0
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// calleeFunc resolves the called function or method of call, or nil for
// builtins, conversions, and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Type().(*types.Signature).Recv() == nil
}
