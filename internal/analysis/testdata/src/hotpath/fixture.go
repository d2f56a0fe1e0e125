// The hotpath-strings fixture poses as toorjah/internal/exec (the test
// loads it at that import path), so the analyzer treats it as hot-path
// code against the real sym and storage packages.
package exec

import (
	"fmt"
	"strings"

	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// BadKey round-trips IDs through strings to build a key.
func BadKey(ids []sym.ID) string {
	parts := sym.Strs(ids)          // want `materializes symbol IDs`
	return strings.Join(parts, ",") // want `builds a joined string key`
}

// BadFmt renders an ID through fmt.
func BadFmt(id sym.ID) string {
	return fmt.Sprintf("%d", id) // want `builds a string through fmt`
}

// BadRow materializes a stored row outside any boundary.
func BadRow(r storage.IRow) []string {
	return r.Strings() // want `materializes row strings`
}

// BadPackedKey skips the materialization and still builds a string to look
// IDs up by (the packed-key fixture has the other shapes).
func BadPackedKey(ids []sym.ID) string {
	return sym.Key(ids) // want `builds a packed string key`
}

// IDList's String renders for debugging; stringer methods are exempt.
type IDList []sym.ID

func (l IDList) String() string {
	return strings.Join(sym.Strs(l), ",")
}

// Render is a sanctioned result boundary.
//
//toorjahvet:boundary (fixture: the marked exit point)
func Render(r storage.IRow) []string {
	return r.Strings()
}

// GoodPanic formats only inside the panic argument.
func GoodPanic(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative count %d", n))
	}
}

// Allowed is suppressed by an explicit annotation.
//
//toorjahvet:allow hotpath-strings (fixture: annotated exception)
func Allowed(id sym.ID) string {
	return sym.Str(id)
}
