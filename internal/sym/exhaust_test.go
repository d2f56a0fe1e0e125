package sym

import (
	"math"
	"strings"
	"testing"
)

// TestInternExhaustionPanics pins what a full table does. The counter of a
// private table is advanced to the last ID (issuing two billion values for
// real would need the reverse pages too), after which every first-seen
// value must panic — repeatedly, never wrapping round to re-issue ID 1 —
// while values interned before keep their IDs. Exhaustion means 2³¹−1 live
// IDs: once a sweep has freed one, the next first-seen value gets it instead
// of panicking, and the one after panics again.
func TestInternExhaustionPanics(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("a")
	h := tab.Hold()
	gone := h.Intern("gone") // unpinned: freed by the sweep below
	h.Release()
	tab.next.Store(math.MaxInt32)

	for _, v := range []string{"b", "c"} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Intern(%q) on a full table returned instead of panicking", v)
				}
				if msg, _ := r.(string); !strings.Contains(msg, "exhausted") {
					t.Fatalf("Intern(%q) panicked with %v, want the exhaustion message", v, r)
				}
			}()
			tab.Intern(v)
		}()
		if _, ok := tab.Lookup(v); ok {
			t.Errorf("%q is in the table after its Intern panicked", v)
		}
	}
	if got := tab.next.Load(); got != math.MaxInt32 {
		t.Errorf("counter moved to %d after exhaustion; an ID could be re-issued", got)
	}
	if got := tab.Intern("a"); got != a {
		t.Errorf("Intern(a) = %d after exhaustion, want its original ID %d", got, a)
	}
	if got := tab.Str(a); got != "a" {
		t.Errorf("Str(%d) = %q after exhaustion", a, got)
	}

	if !tab.Sweep() {
		t.Fatal("Sweep did not run on a table with no hold active")
	}
	if got := tab.Intern("d"); got != gone {
		t.Fatalf("Intern(d) at the cap = %d, want the freed ID %d", got, gone)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Intern(e) at the cap with no ID free returned instead of panicking")
			}
		}()
		tab.Intern("e")
	}()
	if got := tab.Str(a); got != "a" {
		t.Errorf("Str(%d) = %q after the sweep, want the pinned value", a, got)
	}
}
