package oracle

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// Outcome is what one run of a case showed, as plain data, and which of
// Check's properties apply to it.
type Outcome struct {
	Answers []string // the result's answers, as Key strings
	// Streamed are the answers a streaming consumer was handed; nil when the
	// run did not stream.
	Streamed  []string
	Truncated bool
	Limit     int // the run's answer limit; 0 for none
	// Accesses are the audited access keys (sourcetest.Access.Key) that
	// reached the sources; nil when the run was not audited.
	Accesses map[string]bool
	Count    int      // the accesses the run reports
	Probed   []string // the relations the run reports accesses to
	Relevant []string // the plan's relevant relations; nil skips relevant-only
	// Naive marks an uncached run of the symbol engine's naive algorithm;
	// Warm a rerun over an access cache an identical run just filled.
	Naive, Warm bool
	// Fixpoint names a group of runs that must make one access set;
	// Batching one of uncached runs that must report one access count.
	Fixpoint, Batching string
}

// Check holds one run of c on a surface to the reference, property by
// property:
//
//	answers             a run without a limit — no driver cancels one — is
//	                    complete and answers what the reference answers
//	union               the same, for a UCQ: the union of its disjuncts'
//	complete            a stable case's run that is not truncated answers
//	                    the complete answer (Ref.Complete)
//	truncated-subset    a limited run's answers are a subset, exactly
//	                    min(limit, reference answers) of them, and the run
//	                    says it is truncated when the limit cut any
//	naive-accesses      the naive algorithm makes the reference's accesses
//	                    (as many, when not audited)
//	within-naive        an audited run makes only accesses the reference
//	                    makes, a CQ's each once
//	fixpoint-accesses   the runs of a Fixpoint group make one access set
//	relevant-only       no access reaches a relation outside Relevant
//	batching-invariant  the runs of a Batching group report one access count
//	warm-zero           a warm cached rerun makes no access
//	streamed-once       a stream delivers each answer of the result once
func Check(t testing.TB, c *Case, surface string, o Outcome) {
	t.Helper()
	fail := func(property, format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d, %s: %s: %s\nquery: %s", c.Seed, surface, property, fmt.Sprintf(format, args...), c.Text())
	}
	want, got := c.Ref.Answers, slices.Sorted(slices.Values(o.Answers))
	if o.Limit > 0 {
		for i, a := range got {
			if !slices.Contains(want, a) || i > 0 && got[i-1] == a {
				fail("truncated-subset", "answers %q are not a subset of %q", got, want)
				break
			}
		}
		if n := min(o.Limit, len(want)); len(got) != n {
			fail("truncated-subset", "%d answers under limit %d, want %d", len(got), o.Limit, n)
		}
		if o.Limit < len(want) && !o.Truncated {
			fail("truncated-subset", "limit %d cut %d answers and the run says it is complete", o.Limit, len(want)-o.Limit)
		}
	} else if property := "answers"; !slices.Equal(got, want) || o.Truncated {
		if len(c.Disjuncts) > 1 {
			property = "union"
		}
		fail(property, "got %q (truncated %v), want %q", got, o.Truncated, want)
	}
	if c.Stable && !o.Truncated && !slices.Equal(got, c.Ref.Complete) {
		fail("complete", "a stable case answered %q, its complete answer is %q", got, c.Ref.Complete)
	}
	if s := slices.Sorted(slices.Values(o.Streamed)); o.Streamed != nil && !slices.Equal(s, got) {
		fail("streamed-once", "streamed %q, the result holds %q", s, got)
	}
	if len(c.Disjuncts) == 1 && o.Accesses != nil && o.Count != len(o.Accesses) {
		fail("within-naive", "%d accesses made, %d distinct: an access was repeated", o.Count, len(o.Accesses))
	}
	if o.Naive && (o.Accesses == nil && o.Count != len(c.Ref.Accesses) || o.Accesses != nil && len(o.Accesses) != len(c.Ref.Accesses)) {
		fail("naive-accesses", "%d accesses (%d audited), the reference makes %d", o.Count, len(o.Accesses), len(c.Ref.Accesses))
	}
	probed, keys := slices.Clone(o.Probed), make([]string, 0, len(o.Accesses))
	for k := range o.Accesses {
		if !c.Ref.Accesses[k] {
			fail("within-naive", "access %q is not the reference's", k)
		}
		probed = append(probed, k[:strings.IndexByte(k, 0)])
		keys = append(keys, strings.ReplaceAll(k, "\x00", "|"))
	}
	for _, rel := range probed {
		if o.Relevant != nil && !slices.Contains(o.Relevant, rel) {
			fail("relevant-only", "%s probed, relevant are %v", rel, o.Relevant)
		}
	}
	if o.Warm && o.Count != 0 {
		fail("warm-zero", "%d accesses", o.Count)
	}
	slices.Sort(keys)
	if first, v := c.group("fixpoint", o.Fixpoint, surface, strings.Join(keys, " ")); first != surface {
		fail("fixpoint-accesses", "accesses %s, %s made %s", strings.Join(keys, " "), first, v)
	}
	if first, v := c.group("batching", o.Batching, surface, fmt.Sprint(o.Count)); first != surface {
		fail("batching-invariant", "%d accesses, %s made %s", o.Count, first, v)
	}
}

// group files value under a named group for the first surface that brings
// one, and returns that surface and its value — or surface itself when
// value matches, or name is empty.
func (c *Case) group(kind, name, surface, value string) (string, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "" {
		return surface, value
	}
	if c.groups == nil {
		c.groups = map[string][2]string{}
	}
	g, ok := c.groups[kind+" "+name]
	if !ok {
		g = [2]string{surface, value}
		c.groups[kind+" "+name] = g
	}
	if g[1] == value {
		return surface, value
	}
	return g[0], g[1]
}
