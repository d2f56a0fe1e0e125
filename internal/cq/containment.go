package cq

// Homomorphism searches for a homomorphism from query q1 to query q2: a
// mapping h of q1's variables to q2's terms such that h is the identity on
// constants, h(head(q1)) = head(q2) position-wise, and every positive body
// atom of q1 maps to a positive body atom of q2. Negated atoms are ignored
// (containment with negation is beyond Chandra–Merlin and not needed by the
// planner). It returns the mapping, or nil when none exists.
//
// By the Chandra–Merlin theorem, q2 ⊆ q1 (every answer of q2 is an answer of
// q1 on all databases) iff such a homomorphism exists.
func Homomorphism(q1, q2 *CQ) map[string]Term {
	if len(q1.Head) != len(q2.Head) {
		return nil
	}
	h := make(map[string]Term)
	// Seed the mapping with the head correspondence.
	for i, t := range q1.Head {
		if !bindTerm(h, t, q2.Head[i]) {
			return nil
		}
	}
	if mapAtoms(q1.Body, q2.Body, h) {
		return h
	}
	return nil
}

// bindTerm extends h so that term src of q1 maps to term dst of q2; it
// reports whether the extension is consistent.
func bindTerm(h map[string]Term, src, dst Term) bool {
	if !src.IsVar {
		// Constants must map to themselves.
		return !dst.IsVar && src.Name == dst.Name
	}
	if prev, ok := h[src.Name]; ok {
		return prev == dst
	}
	h[src.Name] = dst
	return true
}

// mapAtoms extends h to map every atom of src into some atom of dst,
// backtracking over the choices.
func mapAtoms(src, dst []Atom, h map[string]Term) bool {
	if len(src) == 0 {
		return true
	}
	a := src[0]
	for _, b := range dst {
		if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
			continue
		}
		// Try to map a onto b, remembering which variables we newly bind so
		// we can undo on failure.
		var added []string
		ok := true
		for i := range a.Args {
			s, d := a.Args[i], b.Args[i]
			if s.IsVar {
				if _, bound := h[s.Name]; !bound {
					added = append(added, s.Name)
				}
			}
			if !bindTerm(h, s, d) {
				ok = false
				break
			}
		}
		if ok && mapAtoms(src[1:], dst, h) {
			return true
		}
		for _, v := range added {
			delete(h, v)
		}
	}
	return false
}

// Contains reports whether q1 contains q2 (q2 ⊆ q1): every answer of q2 is
// an answer of q1 over every database instance.
func Contains(q1, q2 *CQ) bool { return Homomorphism(q1, q2) != nil }

// Minimize computes the core of q: an equivalent query with a minimal set of
// body atoms, obtained by repeatedly dropping atoms whose removal preserves
// equivalence (paper Section IV assumes a minimal CQ as planner input; the
// underlying decision problem is the NP-complete CQ minimization of Chandra
// and Merlin). Negated atoms are retained verbatim: dropping a negated atom
// never preserves equivalence, and positive-atom removal is checked against
// the positive part only, which is sound because the negated atoms are safe
// (all their variables also occur in retained positive atoms, re-checked
// before accepting a removal).
func Minimize(q *CQ) *CQ {
	cur := q.Clone()
	for {
		removed := false
		for i := range cur.Body {
			if len(cur.Body) == 1 {
				break
			}
			cand := &CQ{Name: cur.Name, Head: cur.Head, Negated: cur.Negated}
			cand.Body = append(cand.Body, cur.Body[:i]...)
			cand.Body = append(cand.Body, cur.Body[i+1:]...)
			if !safeForNegation(cand) {
				continue
			}
			// cand has a subset of cur's atoms, hence cur ⊆ cand always; the
			// removal is sound iff cand ⊆ cur, i.e. a homomorphism cur → cand.
			if Contains(cur, cand) {
				cur = cand.Clone()
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

// safeForNegation reports whether every head variable and every variable of
// a negated atom still occurs in a positive body atom.
func safeForNegation(q *CQ) bool {
	positive := make(map[string]bool)
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar {
				positive[t.Name] = true
			}
		}
	}
	for _, t := range q.Head {
		if t.IsVar && !positive[t.Name] {
			return false
		}
	}
	for _, a := range q.Negated {
		for _, t := range a.Args {
			if t.IsVar && !positive[t.Name] {
				return false
			}
		}
	}
	return true
}
