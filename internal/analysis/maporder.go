package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range-over-map loops in deterministic packages whose
// bodies accumulate floats with a compound assignment, append to a
// slice, or store into a map, slice or array under an index other than
// the range key. Go randomizes map iteration order per run, and float
// addition is not associative, so the order leaks into the accumulated
// bits; when two keys map to one index, the last write in that order
// wins. The fix is to iterate numeric.SortedKeys(m) (int64-keyed maps)
// or to extract and sort the keys first. Appending only the range key
// itself is the first half of exactly that idiom and is allowed, and so
// is a store indexed by the range key (out[k] = v): distinct keys write
// distinct elements.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "float accumulation, append or aliased store under randomized map iteration order",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	if !deterministicPkgs[p.Path] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			var keyObj types.Object
			if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
				keyObj = p.Info.Defs[id]
				if keyObj == nil {
					keyObj = p.Info.Uses[id]
				}
			}
			inspectMapRangeBody(p, rs, keyObj)
			return true
		})
	}
}

// inspectMapRangeBody reports order-dependent constructs in the body of
// one range-over-map statement.
func inspectMapRangeBody(p *Pass, rs *ast.RangeStmt, keyObj types.Object) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			switch stmt.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range stmt.Lhs {
					if isFloat(p.Info.TypeOf(lhs)) {
						p.Reportf(stmt.Pos(),
							"float %s accumulation inside range over map: iteration order is randomized and float addition is not associative; iterate numeric.SortedKeys (or extract and sort the keys) instead",
							stmt.Tok)
					}
				}
			case token.ASSIGN:
				for _, lhs := range stmt.Lhs {
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && !isRangeKey(p.Info, ix.Index, keyObj) {
						p.Reportf(stmt.Pos(),
							"store inside range over map under an index other than the range key: when two keys map to one index, the last write in randomized order wins; visit the keys in sorted order instead")
					}
				}
			}
		case *ast.CallExpr:
			if !isBuiltinAppend(p.Info, stmt) {
				return true
			}
			if appendsOnlyRangeKey(p.Info, stmt, keyObj) {
				return true // the sorted-keys extraction idiom
			}
			p.Reportf(stmt.Pos(),
				"append inside range over map: the slice inherits the randomized iteration order; extract and sort the keys, then append in key order")
		}
		return true
	})
}

// isRangeKey reports whether e is the range key variable itself.
func isRangeKey(info *types.Info, e ast.Expr, keyObj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && keyObj != nil && info.Uses[id] == keyObj
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendsOnlyRangeKey reports whether every appended element is the
// range key variable itself (ks = append(ks, k)) — order restored by the
// sort that follows in the idiom.
func appendsOnlyRangeKey(info *types.Info, call *ast.CallExpr, keyObj types.Object) bool {
	if keyObj == nil || len(call.Args) < 2 || call.Ellipsis != token.NoPos {
		return false
	}
	for _, arg := range call.Args[1:] {
		if !isRangeKey(info, arg, keyObj) {
			return false
		}
	}
	return true
}
