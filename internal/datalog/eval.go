package datalog

import "slices"

// Eval computes the least fixpoint of the program over the extensional DB
// using stratified semi-naive evaluation, and returns a DB holding the IDB
// relations. The input DB is not modified.
func Eval(p *Program, edb DB) (DB, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	idb := make(DB)
	// view is what the rules read: the IDB relations of the strata reached
	// so far over the EDB ones.
	view := make(DB, len(edb))
	for name, r := range edb {
		view[name] = r
	}
	arity := make(map[string]int)
	for _, r := range p.Rules {
		arity[r.Head.Pred] = len(r.Head.Args)
	}
	for _, stratum := range strata {
		inStratum := make(map[string]bool, len(stratum))
		for _, pred := range stratum {
			inStratum[pred] = true
			view[pred] = idb.Get(pred, arity[pred])
		}
		var rules []*Rule
		for _, r := range p.Rules {
			if inStratum[r.Head.Pred] {
				rules = append(rules, r)
			}
		}
		if err := evalStratum(rules, inStratum, idb, view); err != nil {
			return nil, err
		}
	}
	return idb, nil
}

// evalStratum runs semi-naive evaluation for one stratum's rules: each rule
// is compiled once over full relations and once per body position the
// stratum can hand a delta.
func evalStratum(rules []*Rule, inStratum map[string]bool, idb, view DB) error {
	var (
		m       Machine
		derived []Tuple
	)
	// derive runs one compiled rule and files the head tuples new to the IDB
	// under next. The run is over before anything is inserted: a recursive
	// rule reads the relation it derives into.
	derive := func(c *Compiled, delta []Tuple, next DB) error {
		derived = derived[:0]
		if err := c.Run(&m, view, delta, func(head Tuple) { derived = append(derived, slices.Clone(head)) }); err != nil {
			return err
		}
		pred := c.Rule().Head.Pred
		for _, t := range derived {
			if idb[pred].Insert(t) {
				next.Get(pred, len(t)).Insert(t)
			}
		}
		return nil
	}

	// Round 0: evaluate every rule over the full current database.
	delta := make(DB)
	byPos := make([][]*Compiled, len(rules))
	for ri, r := range rules {
		full, err := Compile(r, -1)
		if err != nil {
			return err
		}
		if err := derive(full, nil, delta); err != nil {
			return err
		}
		byPos[ri] = make([]*Compiled, len(r.Body))
		for i, a := range r.Body {
			if !inStratum[a.Pred] {
				continue
			}
			if byPos[ri][i], err = Compile(r, i); err != nil {
				return err
			}
		}
	}
	// Subsequent rounds: for every rule and every body position whose
	// predicate changed, join the delta there with full relations elsewhere.
	for len(delta) > 0 {
		next := make(DB)
		for ri, r := range rules {
			for i, a := range r.Body {
				if d, ok := delta[a.Pred]; ok && byPos[ri][i] != nil {
					if err := derive(byPos[ri][i], d.tuples, next); err != nil {
						return err
					}
				}
			}
		}
		delta = next
	}
	return nil
}
