package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFirst enforces the PR 7 execution-API convention: in library packages
// an exported function that takes a context.Context takes it as the first
// parameter, and no code manufactures a root context with
// context.Background()/context.TODO() — contexts are threaded from the
// caller. The nil-fallback idiom (reassigning an existing ctx variable) is
// exempt; the rare function with no caller context to thread carries an
// explicit //toorjahvet:allow ctx-first directive.
var CtxFirst = &Analyzer{
	Name: "ctx-first",
	Doc:  "context.Context first in exported signatures; no context.Background/TODO in library packages",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return
	}
	for _, f := range pass.Pkg.Files {
		checkCtxParamOrder(pass, f)
		checkNoRootContexts(pass, f)
	}
}

// checkCtxParamOrder flags exported functions whose context.Context
// parameter is not the first parameter.
func checkCtxParamOrder(pass *Pass, f *ast.File) {
	for _, d := range f.Decls {
		decl, ok := d.(*ast.FuncDecl)
		if !ok || !decl.Name.IsExported() {
			continue
		}
		fn, ok := pass.Pkg.Info.Defs[decl.Name].(*types.Func)
		if !ok {
			continue
		}
		params := fn.Signature().Params()
		for i := 1; i < params.Len(); i++ {
			if isContextType(params.At(i).Type()) {
				pass.Reportf(decl.Name.Pos(),
					"exported %s takes context.Context as parameter %d: context must come first",
					decl.Name.Name, i+1)
				break
			}
		}
	}
}

// checkNoRootContexts flags context.Background()/context.TODO() calls,
// skipping the nil-fallback reassignment idiom (ctx = context.Background()
// with = , not :=).
func checkNoRootContexts(pass *Pass, f *ast.File) {
	fallbacks := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, rhs := range as.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					fallbacks[call] = true
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := pass.CalleeName(call)
		if name != "context.Background" && name != "context.TODO" {
			return true
		}
		if fallbacks[call] {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s in a library package: thread the caller's context instead", name)
		return true
	})
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
