package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatOrder flags floating-point compound accumulation (+=, -=, *=, /=)
// onto shared state from inside concurrently executed closures: goroutine
// bodies (`go func() { ... }()`) and callbacks handed to the
// internal/parallel pool. Float addition is not associative, so the
// scheduling order of such accumulation changes the low bits of the sum —
// exactly the class of bug PRs 1, 4 and 6 each rediscovered. The required
// shape is the index-addressed slot pattern: each worker writes
// out[i] (a slot only it owns), and the caller reduces serially in index
// order. Accumulation into non-constant index expressions is therefore
// exempt; plain captured variables, captured struct fields, pointer
// dereferences, and constant-indexed slots are flagged.
var FloatOrder = &Analyzer{
	Name: "floatorder",
	Doc: "flag float accumulation on shared state inside goroutines or " +
		"parallel-pool callbacks; require index-addressed per-worker slots",
	Run: runFloatOrder,
}

// parallelPkg is the worker pool whose callbacks run concurrently.
const parallelPkg = "sgr/internal/parallel"

func runFloatOrder(pass *Pass) error {
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if !isConcurrentClosure(pass, lit, stack) {
				return true
			}
			checkFloatAccum(pass, lit)
			// Nested closures are reached through this walk; no need to
			// re-classify them.
			return false
		})
	}
	return nil
}

// isConcurrentClosure reports whether lit runs concurrently with its
// enclosing function: the callee of a go statement, or an argument to an
// internal/parallel entry point (Map, Blocks, NewPool — any of them).
func isConcurrentClosure(pass *Pass, lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	if ast.Unparen(call.Fun) == ast.Expr(lit) {
		// `go func() { ... }()`
		if len(stack) >= 2 {
			if g, ok := stack[len(stack)-2].(*ast.GoStmt); ok && g.Call == call {
				return true
			}
		}
		return false
	}
	// An argument of a parallel-pool call.
	fn := calleeFunc(pass.TypesInfo, call)
	if funcPkgPath(fn) != parallelPkg {
		return false
	}
	for _, arg := range call.Args {
		if ast.Unparen(arg) == ast.Expr(lit) {
			return true
		}
	}
	return false
}

// checkFloatAccum reports order-sensitive float accumulation on state
// captured from outside lit.
func checkFloatAccum(pass *Pass, lit *ast.FuncLit) {
	lo, hi := lit.Pos(), lit.End()
	captured := func(e ast.Expr) bool {
		root := rootIdent(e)
		if root == nil {
			return true // f().x and friends: can't prove it's worker-local
		}
		obj := pass.TypesInfo.ObjectOf(root)
		return obj != nil && !declaredWithin(obj, lo, hi)
	}
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"floating-point accumulation on shared %s inside a concurrently executed closure: scheduling order changes the sum bits; write to an index-addressed per-worker slot and reduce serially in index order", what)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			t := pass.TypesInfo.TypeOf(lhs)
			if t == nil || !isFloatType(t) {
				continue
			}
			switch e := ast.Unparen(lhs).(type) {
			case *ast.IndexExpr:
				// The slot pattern: out[i] with a per-worker index is the
				// required shape. A constant index is a single shared slot
				// wearing a slot pattern's clothes.
				if cv := pass.TypesInfo.Types[e.Index].Value; cv != nil && captured(e.X) {
					report(as.Pos(), "constant-indexed slot "+types.ExprString(e))
				}
			case *ast.Ident:
				if captured(e) {
					report(as.Pos(), "variable "+e.Name)
				}
			case *ast.SelectorExpr:
				if captured(e) {
					report(as.Pos(), "field "+types.ExprString(e))
				}
			case *ast.StarExpr:
				if captured(e) {
					report(as.Pos(), "pointer target "+types.ExprString(e))
				}
			}
		}
		return true
	})
}
