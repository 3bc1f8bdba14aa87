// Command cleansel-lint runs the repo's determinism-contract analyzers
// (internal/analysis) over the given package patterns and exits non-zero
// on findings.
//
//	cleansel-lint ./...
//	cleansel-lint -checks maporder,floateq ./internal/dist
//	cleansel-lint -list
//
// Diagnostics print as file:line:col: [check] message, with paths
// relative to the working directory. Suppress a finding per file with a
// mandatory-reason directive in that file:
//
//	//lint:allow <check> — <reason>
//
// Packages are resolved with `go list`, so the go command must be on
// PATH. Exit status: 0 clean, 1 findings, 2 usage or load failure; a
// pattern set that matches no module package is a load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/factcheck/cleansel/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("cleansel-lint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cleansel-lint [-checks c1,c2] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg := analysis.Config{Dir: ".", Patterns: patterns}
	if *checks != "" {
		cfg.Checks = strings.Split(*checks, ",")
	}
	diags, err := analysis.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cleansel-lint:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cleansel-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
