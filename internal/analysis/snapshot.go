package analysis

import (
	"go/ast"
	"strings"
)

// SnapshotDiscipline enforces PR 5/7's consistency model: every execution
// reads one pinned, epoch-stamped snapshot per relation. Code outside
// internal/storage must therefore not use storage.Table's unpinned
// convenience readers — each such call re-loads the current snapshot, so
// two calls can observe different epochs. Callers pin once via Snapshot()
// and read through it.
var SnapshotDiscipline = &Analyzer{
	Name: "snapshot-discipline",
	Doc:  "no unpinned storage.Table reads outside internal/storage: pin a Snapshot first",
	Run:  runSnapshotDiscipline,
}

// unpinnedTableReaders is the banned read surface of *storage.Table. The
// mutation surface (Insert/Delete/...) and Snapshot/Epoch remain fine.
var unpinnedTableReaders = map[string]bool{
	"Len": true, "Contains": true, "Rows": true, "Project": true,
}

func runSnapshotDiscipline(pass *Pass) {
	storagePath := pass.Module.Path + "/internal/storage"
	if pass.Pkg.Path == storagePath {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := pass.CalleeName(call)
			rest, ok := strings.CutPrefix(name, "(*"+storagePath+".Table).")
			if !ok || !unpinnedTableReaders[rest] {
				return true
			}
			pass.Reportf(call.Pos(),
				"unpinned Table.%s: pin one snapshot per execution via Snapshot() and read through it", rest)
			return true
		})
	}
}
