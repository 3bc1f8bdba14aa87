package analysis

import (
	"fmt"
	"sort"
)

// A Config selects what Run analyzes.
type Config struct {
	// Dir is where `go list` resolves the patterns: it anchors relative
	// patterns and must be inside the module.
	Dir string
	// Patterns are package patterns ("./...", "./internal/dist", ...).
	Patterns []string
	// Checks restricts the suite to the named analyzers; empty means all.
	// Unused-suppression reporting only happens with the full suite,
	// since a directive for a deselected check is not evidence of rot.
	Checks []string
}

// Run loads the matched packages, applies every selected analyzer, and
// returns the surviving diagnostics sorted by position. Findings
// suppressed by a valid //lint:allow directive are dropped; malformed
// and unused directives are themselves diagnostics.
func Run(cfg Config) ([]Diagnostic, error) {
	analyzers := Analyzers
	if len(cfg.Checks) > 0 {
		analyzers = nil
		for _, name := range cfg.Checks {
			a := ByName(name)
			if a == nil {
				return nil, fmt.Errorf("analysis: unknown check %q (known: %s)", name, checkNames())
			}
			analyzers = append(analyzers, a)
		}
	}
	pkgs, err := loadPackages(cfg.Dir, cfg.Patterns)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	allowsByFile := map[string][]*allowDirective{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			allows, malformed := parseAllows(pkg.Fset, f)
			diags = append(diags, malformed...)
			name := pkg.Fset.Position(f.Pos()).Filename
			allowsByFile[name] = append(allowsByFile[name], allows...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				for _, dir := range allowsByFile[d.Pos.Filename] {
					if dir.check == d.Check {
						dir.used = true
						return
					}
				}
				diags = append(diags, d)
			}
			a.Run(pass)
		}
	}

	if len(cfg.Checks) == 0 {
		for _, allows := range allowsByFile {
			for _, dir := range allows {
				if !dir.used {
					diags = append(diags, Diagnostic{
						Pos:     dir.pos,
						Check:   "lint",
						Message: fmt.Sprintf("unused //lint:allow %s directive (no %s finding left in this file); delete it", dir.check, dir.check),
					})
				}
			}
		}
	}

	return dedupeSort(diags), nil
}

// dedupeSort orders diagnostics by position and check, dropping exact
// positional duplicates of the same check (nested constructs can trip
// one analyzer twice at one position).
func dedupeSort(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	var out []Diagnostic
	for _, d := range diags {
		if n := len(out); n > 0 && out[n-1].Pos == d.Pos && out[n-1].Check == d.Check {
			continue
		}
		out = append(out, d)
	}
	return out
}
