package analysis

import (
	"go/ast"
	"slices"
	"strings"
)

// HotpathStrings enforces PR 7's integer-tuple representation: inside the
// hot-path packages (exec, storage, cache, datalog) no code may
// materialize symbol IDs back into strings, build keys through fmt or pack
// IDs into string keys — IDs flow end to end, every ID-keyed lookup hashes
// them through sym.RefTable, and strings appear only at result/serialization
// boundaries, which are marked //toorjahvet:boundary.
var HotpathStrings = &Analyzer{
	Name: "hotpath-strings",
	Doc:  "no string materialization, fmt-based key building or packed string keys in hot-path packages",
	Run:  runHotpathStrings,
}

// hotPathPkgs are the module packages the analyzer applies to, keyed by
// path suffix under the module root.
var hotPathPkgs = []string{
	"/internal/exec",
	"/internal/storage",
	"/internal/cache",
	"/internal/datalog",
}

const packedKeyReason = "builds a packed string key (hash the IDs through sym.RefTable)"

// hotpathBanned maps fully qualified callee names to the reason each is
// banned on the hot path.
var hotpathBanned = map[string]string{
	"{mod}/internal/sym.Str":                 "materializes a symbol ID",
	"{mod}/internal/sym.Strs":                "materializes symbol IDs",
	"(*{mod}/internal/sym.Table).Str":        "materializes a symbol ID",
	"(*{mod}/internal/sym.Table).Strs":       "materializes symbol IDs",
	"(*{mod}/internal/sym.Table).StrsAppend": "materializes symbol IDs",
	"{mod}/internal/storage.MaterializeRows": "materializes row strings",
	"({mod}/internal/storage.IRow).Strings":  "materializes row strings",
	"({mod}/internal/storage.Row).Key":       "builds a string row key",
	"fmt.Sprintf":                            "builds a string through fmt",
	"fmt.Sprint":                             "builds a string through fmt",
	"fmt.Sprintln":                           "builds a string through fmt",
	"fmt.Appendf":                            "builds a string through fmt",
	"fmt.Append":                             "builds a string through fmt",
	"fmt.Appendln":                           "builds a string through fmt",
	"strings.Join":                           "builds a joined string key",
	"{mod}/internal/sym.Key":                 packedKeyReason,
	"{mod}/internal/sym.AppendKey":           packedKeyReason,
	"({mod}/internal/storage.IRow).Key":      packedKeyReason,
}

// stringerMethods may materialize freely: they exist to render.
var stringerMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
}

func runHotpathStrings(pass *Pass) {
	if !slices.Contains(hotPathPkgs, strings.TrimPrefix(pass.Pkg.Path, pass.Module.Path)) {
		return
	}
	panicArgs := collectPanicArgCalls(pass.Pkg.Files)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := pass.CalleeName(call)
			if name == "" {
				return true
			}
			name = strings.Replace(name, pass.Module.Path+"/", "{mod}/", 1)
			reason, banned := hotpathBanned[name]
			if !banned || panicArgs[call] || pass.InBoundaryFunc(call.Pos()) {
				return true
			}
			if fd := pass.EnclosingFuncDecl(call.Pos()); fd != nil && stringerMethods[fd.Name.Name] {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s on the hot path: call to %s (IDs only until the result boundary; mark boundary funcs //toorjahvet:boundary)",
				reason, strings.Replace(name, "{mod}/", pass.Module.Path+"/", 1))
			return true
		})
	}
}

// collectPanicArgCalls gathers every call expression appearing inside a
// panic(...) argument: panic messages are allowed to format strings.
func collectPanicArgCalls(files []*ast.File) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "panic" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						out[c] = true
					}
					return true
				})
			}
			return true
		})
	}
	return out
}
