package wal

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoDiscardedWriteErrors holds the log's code to its crash-safety
// contract at the source: a swallowed Sync error is an acknowledgement the
// disk never honoured. In the package's non-test files no error may be
// dropped — no call whose last result goes to the blank identifier, no bare
// or deferred Close, Sync, Write*, Truncate, Rename or Remove — unless the
// line directly above says why, in a comment starting `// unchecked: `.
func TestNoDiscardedWriteErrors(t *testing.T) {
	const bad = `package p

func f() {
	_ = g()
	_, _ = f.Write(b)
	_, err := f.Write(b)
	defer f.Close()
	os.Remove(p)
	// unchecked: a reason
	_ = f.Sync()
	// unchecked: not directly above

	f.Sync()
}`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "bad.go", bad, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bad.go:4", "bad.go:5", "bad.go:7", "bad.go:8", "bad.go:13"}
	if got := discards(fset, file); !slices.Equal(got, want) {
		t.Fatalf("the check flags %v in its own fixture, want %v", got, want)
	}

	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, at := range discards(fset, file) {
			t.Errorf("%s: an error is discarded without an `// unchecked: <reason>` line directly above", at)
		}
	}
	if checked == 0 {
		t.Fatal("no non-test file of the package was found")
	}
}

// discards returns the file:line of every statement in file that drops an
// error without an `// unchecked: ` comment on the line above it.
func discards(fset *token.FileSet, file *ast.File) []string {
	excused := make(map[int]bool)
	for _, group := range file.Comments {
		for _, c := range group.List {
			if reason, ok := strings.CutPrefix(c.Text, "// unchecked: "); ok && strings.TrimSpace(reason) != "" {
				excused[fset.Position(c.End()).Line+1] = true
			}
		}
	}
	var out []string
	flag := func(n ast.Node) {
		if pos := fset.Position(n.Pos()); !excused[pos.Line] {
			out = append(out, fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			last, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident)
			if _, call := st.Rhs[len(st.Rhs)-1].(*ast.CallExpr); call && ok && last.Name == "_" {
				flag(st)
			}
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && writePath(call) {
				flag(st)
			}
		case *ast.DeferStmt:
			if writePath(st.Call) {
				flag(st)
			}
		}
		return true
	})
	return out
}

// writePath reports whether call is one whose error a durable write must
// not lose.
func writePath(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch name := sel.Sel.Name; name {
	case "Close", "Sync", "Truncate", "Rename", "Remove":
		return true
	default:
		return strings.HasPrefix(name, "Write")
	}
}
