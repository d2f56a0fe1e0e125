package exec

import (
	"toorjah/internal/plan"
	"toorjah/internal/sym"
)

// enumState tracks which domain values one cache node has already folded
// into its candidate cross product. The domain pools only ever grow (the
// cache database is monotone within an execution), so enumerating, each
// pass, exactly the combinations that contain at least one value first
// derived since the previous pass visits every candidate binding exactly
// once across the whole execution. The executors therefore need no
// per-binding tried set: a binding reaching the emit callback is new by
// construction, and its access key is packed and hashed once, not once per
// fixpoint pass.
//
// States come from the execution's scratch and go back with it, so the
// pools below keep their capacity from one execution to the next.
type enumState struct {
	fired   bool      // the empty binding () was emitted (no-input patterns)
	pos     []enumPos // per input position
	binding []sym.ID  // the combination being assembled
}

// enumPos is the enumerator's view of one input position's domain.
type enumPos struct {
	seen  map[sym.ID]bool // values already enumerated
	old   []sym.ID        // those values, in first-seen order
	fresh []sym.ID        // values first derived in the current pass
}

// resize readies a new or recycled state for a node with n input positions.
func (es *enumState) resize(n int) {
	if n > cap(es.pos) {
		es.pos = append(es.pos[:cap(es.pos)], make([]enumPos, n-cap(es.pos))...)
	}
	es.pos = es.pos[:n]
	for i := range es.pos {
		if es.pos[i].seen == nil {
			es.pos[i].seen = make(map[sym.ID]bool)
		}
	}
	es.binding = append(es.binding[:0], make([]sym.ID, n)...)
}

// reset forgets everything enumerated, keeping capacity.
func (es *enumState) reset() {
	es.fired = false
	for i := range es.pos {
		clear(es.pos[i].seen)
		es.pos[i].old = es.pos[i].old[:0]
	}
}

// newBindings enumerates the candidate access bindings of cache c that no
// earlier pass has enumerated, and reports whether any were emitted. The
// binding slice handed to emit is reused between calls — emit must copy it
// if it keeps it. While any input position's domain is still empty no
// binding is complete, so nothing is emitted and no state is consumed: the
// values the other positions already derived stay fresh for the first pass
// that can combine them.
func (st *groupState) newBindings(c *plan.Cache, emit func(binding []sym.ID) error) (bool, error) {
	es := st.enums[c]
	if es == nil {
		es = st.sc.enum(len(c.DomainPreds))
		st.enums[c] = es
	}
	if len(c.DomainPreds) == 0 {
		// A pattern with no input attributes has the single free access ().
		if es.fired {
			return false, nil
		}
		es.fired = true
		return true, emit(nil)
	}
	pos, binding := es.pos, es.binding
	any := false
	for i, dp := range c.DomainPreds {
		p := &pos[i]
		p.fresh = p.fresh[:0]
		vals, err := st.domainValues(dp)
		if err != nil {
			return false, err
		}
		for v := range vals {
			if !p.seen[v] {
				p.fresh = append(p.fresh, v)
			}
		}
		if len(p.old)+len(p.fresh) == 0 {
			return false, nil
		}
		any = any || len(p.fresh) > 0
	}
	if !any {
		return false, nil
	}
	// Semi-naive product: with d the rightmost fresh coordinate, positions
	// before d draw from their full pools, position d from its fresh values
	// only, positions after d from their old pools — every combination with
	// at least one fresh coordinate appears under exactly one d.
	emitted := false
	var walk func(i, d int) error
	walk = func(i, d int) error {
		if i == len(binding) {
			emitted = true
			return emit(binding)
		}
		use := func(pool []sym.ID) error {
			for _, v := range pool {
				binding[i] = v
				if err := walk(i+1, d); err != nil {
					return err
				}
			}
			return nil
		}
		if i == d {
			return use(pos[i].fresh)
		}
		if err := use(pos[i].old); err != nil {
			return err
		}
		if i < d {
			return use(pos[i].fresh)
		}
		return nil
	}
	for d := range pos {
		if len(pos[d].fresh) == 0 {
			continue
		}
		if err := walk(0, d); err != nil {
			return emitted, err
		}
	}
	for i := range pos {
		p := &pos[i]
		for _, v := range p.fresh {
			p.seen[v] = true
		}
		p.old = append(p.old, p.fresh...)
	}
	return emitted, nil
}
