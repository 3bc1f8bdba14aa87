package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked module package. Test files are
// not analyzed: the contract covers the shipped library and binaries,
// and test packages routinely (and legitimately) use Background
// contexts, wall-clock timing, and exact float expectations.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the part of a `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool // reached only as a dependency, not matched by a pattern
}

// loadPackages resolves patterns with `go list -deps`, run in dir, and
// type-checks every non-standard package it prints, from source and in
// its order: go list prints each package after its dependencies, so a
// module import is always checked before its importer needs it.
// Standard-library imports come from the source importer. It returns
// the packages the patterns matched, in go list order.
func loadPackages(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// The suite reasons about the pure-Go build: cgo variants of stdlib
	// packages would drag the cgo tool into type-checking for nothing.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	build.Default.CgoEnabled = false // the source importer reads build.Default

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})
	var matched []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("analysis: reading go list output: %w", err)
		}
		if lp.Standard {
			continue
		}
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		checked[pkg.Path] = pkg.Types
		if !lp.DepOnly {
			matched = append(matched, pkg)
		}
	}
	// go list only warns about a pattern that matches nothing, and
	// patterns such as "std" match standard packages alone.
	if len(matched) == 0 {
		return nil, fmt.Errorf("analysis: no module packages match %s", strings.Join(patterns, " "))
	}
	return matched, nil
}

// check parses and type-checks one listed package, resolving its imports
// through imp.
func check(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(lp.ImportPath, fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, errs[0])
	}
	return &Package{Path: lp.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
