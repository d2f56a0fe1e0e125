package plan

import (
	"testing"
)

// TestOrderUniqueOnChain: a pure chain has exactly one ordering.
func TestOrderUniqueOnChain(t *testing.T) {
	o := optimize(t, `
seed^o(A)
mid^io(A, B)
last^io(B, C)
`, "q(C) :- seed(X), mid(X, Y), last(Y, C)")
	groups, unique := Order(o)
	if !unique {
		t.Error("chain ordering must be unique")
	}
	if len(groups) != 3 {
		t.Errorf("groups = %d", len(groups))
	}
	names := []string{}
	for _, g := range groups {
		for _, s := range g {
			names = append(names, s.Rel.Name)
		}
	}
	if names[0] != "seed" || names[1] != "mid" || names[2] != "last" {
		t.Errorf("order = %v", names)
	}
}
