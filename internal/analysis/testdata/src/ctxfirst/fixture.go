// The ctx-first fixture is loaded as a library package (non-main), where
// both rules apply: context.Context first in exported signatures, no
// manufactured root contexts.
package ctxfixture

import "context"

func helper(ctx context.Context) {}

// BadOrder takes the context in the wrong position.
func BadOrder(name string, ctx context.Context) { // want `context must come first`
	helper(ctx)
}

// BadRoot manufactures a root context.
func BadRoot() {
	helper(context.Background()) // want `thread the caller's context`
}

// BadTODO is no better.
func BadTODO() {
	helper(context.TODO()) // want `thread the caller's context`
}

// GoodOrder threads the caller's context.
func GoodOrder(ctx context.Context, name string) {
	helper(ctx)
}

// GoodFallback uses the nil-fallback reassignment idiom, which is allowed.
func GoodFallback(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

// Shimmed has no caller context to thread.
//
//toorjahvet:allow ctx-first (fixture: annotated exception)
func Shimmed() {
	helper(context.Background())
}
