package analysis

import (
	"go/ast"
)

// WallTime keeps ambient nondeterminism out of the engine packages
// (dist, ev, maxpr, expt, core, numeric, obs): no wall-clock reads
// (time.Now), no global math/rand stream (randomness flows through
// internal/rng split streams, whose output is stable across runs and Go
// releases), and no environment-dependent branching (os.Getenv /
// os.LookupEnv / os.Environ). Any of these makes an engine result
// depend on when, where, or how the process ran instead of only on its
// inputs.
//
// internal/obs is the sanctioned exception — the single package where
// wall time enters, injected as obs.Clock at the server boundary; its
// clock file carries the //lint:allow walltime directive. Engine
// packages may tick the write-only obs.Recorder a request carries, but
// must never hold a clock themselves: touching obs.Clock, SystemClock,
// a fake clock, or NewRecorder (which embeds a clock) from an engine is
// flagged.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "wall-clock, global math/rand, and env reads in deterministic engine packages",
	Run:  runWallTime,
}

// obsPkg is the sanctioned clock-and-trace package.
const obsPkg = ModulePath + "/internal/obs"

// obsClockSymbols are the internal/obs identifiers that hand out wall
// time. Everything else in obs (Recorder, FromContext, WithRecorder,
// request IDs) is write-only plumbing and fine to use from engines.
var obsClockSymbols = map[string]bool{
	"Clock":        true,
	"SystemClock":  true,
	"FakeClock":    true,
	"NewFakeClock": true,
	"NewRecorder":  true,
}

func runWallTime(p *Pass) {
	if !enginePkgs[p.Path] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if isPkgFunc(p.Info, e, "time", "Now") {
					p.Reportf(e.Pos(),
						"time.Now in deterministic engine package: results must depend only on inputs; take timestamps at the caller or inject a clock")
				}
				for _, fn := range []string{"Getenv", "LookupEnv", "Environ"} {
					if isPkgFunc(p.Info, e, "os", fn) {
						p.Reportf(e.Pos(),
							"os.%s in deterministic engine package: environment-dependent behavior breaks reproducibility; plumb configuration through parameters", fn)
					}
				}
			case *ast.Ident:
				obj := p.Info.Uses[e]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch path := obj.Pkg().Path(); {
				case path == "math/rand" || path == "math/rand/v2":
					p.Reportf(e.Pos(),
						"%s.%s in deterministic engine package: use internal/rng split streams, whose output is reproducible across runs and Go releases", path, obj.Name())
				case path == obsPkg && p.Path != obsPkg && obsClockSymbols[obj.Name()]:
					p.Reportf(e.Pos(),
						"obs.%s in deterministic engine package: engines tick the request's write-only obs.Recorder but never hold a clock; inject obs.Clock at the server boundary", obj.Name())
				}
			}
			return true
		})
	}
}
