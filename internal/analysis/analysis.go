// Package analysis is toorjah's in-repo static-analysis framework: a
// dependency-free driver (stdlib go/parser + go/types + go/importer, same
// ethos as cmd/linkcheck) that loads every package of the module with full
// type information and runs repo-specific analyzers over them. The
// analyzers mechanically enforce the invariants the engine's correctness
// and performance rest on — integer-only hot paths, context-first
// execution, pinned snapshots, pooled-value hygiene, bounded and
// error-checked HTTP handlers — so regressions fail `go test ./...` and CI
// instead of waiting for a randomized property test to stumble on them.
//
// Two comment directives tune the analyzers at function granularity:
//
//	//toorjahvet:allow <analyzer> (reason)
//	//toorjahvet:boundary (reason)
//
// An allow directive in a function's doc comment or body suppresses the
// named analyzer for that whole function; a boundary directive marks the
// function as a result/serialization boundary where hotpath-strings
// permits string materialization. Every directive should carry a reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one type-checked package of the module (tests excluded).
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	funcs map[*ast.File][]*funcInfo // built lazily, per file, decl order
}

// Module is the fully loaded module: every package.
type Module struct {
	Path string
	Dir  string
	Fset *token.FileSet
	Pkgs []*Package

	byPath map[string]*Package
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string // stable identifier, used in -only and allow directives
	Doc  string // one-line description of the enforced invariant
	Run  func(*Pass)
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos unless the enclosing function carries
// an allow directive for this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if fn := p.Pkg.enclosingFunc(pos); fn != nil && fn.allowed[p.Analyzer.Name] {
		return
	}
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Callee resolves the statically-known callee of a call expression, or nil
// for calls through function values, built-ins, and conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// CalleeName returns the fully qualified name of a call's static callee
// ("" when unresolvable): "path/pkg.Func" for package functions,
// "(path/pkg.Recv).Method" or "(*path/pkg.Recv).Method" for methods.
func (p *Pass) CalleeName(call *ast.CallExpr) string {
	if fn := p.Callee(call); fn != nil {
		return fn.FullName()
	}
	return ""
}

// InBoundaryFunc reports whether pos sits inside a function marked with a
// //toorjahvet:boundary directive.
func (p *Pass) InBoundaryFunc(pos token.Pos) bool {
	fn := p.Pkg.enclosingFunc(pos)
	return fn != nil && fn.boundary
}

// EnclosingFuncDecl returns the function declaration containing pos, or nil
// at package scope.
func (p *Pass) EnclosingFuncDecl(pos token.Pos) *ast.FuncDecl {
	if fn := p.Pkg.enclosingFunc(pos); fn != nil {
		return fn.decl
	}
	return nil
}

// funcInfo caches the directive state of one top-level function.
type funcInfo struct {
	decl     *ast.FuncDecl
	allowed  map[string]bool // analyzers suppressed by //toorjahvet:allow
	boundary bool            // //toorjahvet:boundary present
}

// enclosingFunc returns the cached info of the top-level function whose
// extent contains pos. Function literals inherit the directives of the
// declaration they are written in.
func (p *Package) enclosingFunc(pos token.Pos) *funcInfo {
	tf := p.Fset.File(pos)
	if tf == nil {
		return nil
	}
	if p.funcs == nil {
		p.funcs = make(map[*ast.File][]*funcInfo, len(p.Files))
	}
	var file *ast.File
	for _, f := range p.Files {
		if p.Fset.File(f.Pos()) == tf {
			file = f
			break
		}
	}
	if file == nil {
		return nil
	}
	infos, ok := p.funcs[file]
	if !ok {
		infos = p.buildFuncInfos(file)
		p.funcs[file] = infos
	}
	i := sort.Search(len(infos), func(i int) bool { return infos[i].decl.End() > pos })
	if i < len(infos) && infos[i].decl.Pos() <= pos {
		return infos[i]
	}
	return nil
}

// buildFuncInfos scans one file's declarations and comments into directive
// records, in declaration order.
func (p *Package) buildFuncInfos(file *ast.File) []*funcInfo {
	var infos []*funcInfo
	for _, d := range file.Decls {
		decl, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		fi := &funcInfo{decl: decl, allowed: make(map[string]bool)}
		infos = append(infos, fi)
	}
	// Attach each directive comment to the function it appears in — as the
	// doc comment or anywhere inside the body.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			name, rest, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			fi := findFunc(infos, cg, c.Pos())
			if fi == nil {
				continue
			}
			switch name {
			case "allow":
				for _, a := range strings.Fields(rest) {
					fi.allowed[a] = true
				}
			case "boundary":
				fi.boundary = true
			}
		}
	}
	return infos
}

// findFunc locates the function a directive comment belongs to: the
// function whose extent contains it, or the one the comment group
// documents.
func findFunc(infos []*funcInfo, cg *ast.CommentGroup, pos token.Pos) *funcInfo {
	for _, fi := range infos {
		if fi.decl.Pos() <= pos && pos < fi.decl.End() {
			return fi
		}
		if fi.decl.Doc == cg {
			return fi
		}
	}
	return nil
}

// parseDirective splits a "//toorjahvet:name args (reason)" comment. Any
// trailing parenthesized reason is stripped from args.
func parseDirective(text string) (name, args string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//toorjahvet:")
	if !ok {
		return "", "", false
	}
	if i := strings.IndexByte(rest, '('); i >= 0 {
		rest = rest[:i]
	}
	name, args, _ = strings.Cut(strings.TrimSpace(rest), " ")
	return name, strings.TrimSpace(args), name != ""
}
