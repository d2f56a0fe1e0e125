package exec

import (
	"toorjah/internal/plan"
	"toorjah/internal/sym"
)

// enumState is one access pattern's view of its input domains — a cache
// node's in the optimized executor, a relation's in the naive one — and of
// how much of their cross product it has already enumerated. The domain
// pools only ever grow (the cache database is monotone within an execution),
// so enumerating, each pass, exactly the combinations that contain at least
// one value first derived since the previous pass visits every candidate
// binding exactly once across the whole execution. The executors therefore
// need no per-binding tried set: a binding reaching the emit callback is new
// by construction.
//
// Each position's pool is one slice cut by watermarks (enumPos), maintained
// from deltas: the executor appends whatever values an extraction
// contributes the moment it lands, so a pass never evaluates a rule — it
// walks the pools it finds.
//
// States come from the execution's scratch and go back with it, so the
// pools below keep their capacity from one execution to the next.
type enumState struct {
	fired   bool      // the empty binding () was emitted (no-input patterns)
	pos     []enumPos // per input position
	binding []sym.ID  // the combination being assembled
}

// enumPos is the enumerator's view of one input position's domain: one pool
// of values in first-seen order, cut by two watermarks. vals[:old] were
// enumerated by earlier passes; vals[old:cut] are the fresh values the
// running pass enumerates; an emit callback that ingests an extraction
// appends behind cut, and those values wait for the next pass.
type enumPos struct {
	vals     []sym.ID
	seen     sym.RefTable // references into vals
	old, cut int
}

// add records a value of the position's domain, fresh unless known.
func (p *enumPos) add(v sym.ID) {
	h := sym.HashIDs([]sym.ID{v})
	for at, ref := p.seen.First(h); ref >= 0; at, ref = p.seen.Next(at, h) {
		if p.vals[ref] == v {
			return
		}
	}
	p.seen.Add(h, int32(len(p.vals)))
	p.vals = append(p.vals, v)
}

// resize readies a new or recycled state for a node with n input positions.
func (es *enumState) resize(n int) {
	if n > cap(es.pos) {
		es.pos = append(es.pos[:cap(es.pos)], make([]enumPos, n-cap(es.pos))...)
	}
	es.pos = es.pos[:n]
	es.binding = append(es.binding[:0], make([]sym.ID, n)...)
}

// reset forgets everything derived and enumerated, keeping capacity.
func (es *enumState) reset() {
	es.fired = false
	for i := range es.pos {
		p := &es.pos[i]
		p.seen.Reset()
		p.vals, p.old, p.cut = p.vals[:0], 0, 0
	}
}

// newBindings enumerates the candidate access bindings of cache c that no
// earlier pass has enumerated (enumState.next).
func (st *groupState) newBindings(c *plan.Cache, emit func(binding []sym.ID) error) (bool, error) {
	return st.enums[c.Index].next(emit)
}

// next is one pass: it enumerates the candidate bindings no earlier pass has
// enumerated, and reports whether any were emitted; its cost is the bindings
// it emits. The binding slice handed to emit is reused between calls — emit
// must copy it if it keeps it. While any input position's domain is still
// empty no binding is complete, so nothing is emitted and no state is
// consumed: the values the other positions already derived stay fresh for
// the first pass that can combine them.
func (es *enumState) next(emit func(binding []sym.ID) error) (bool, error) {
	pos := es.pos
	if len(pos) == 0 {
		// A pattern with no input attributes has the single free access ().
		if es.fired {
			return false, nil
		}
		es.fired = true
		return true, emit(nil)
	}
	any := false
	for i := range pos {
		p := &pos[i]
		if len(p.vals) == 0 {
			return false, nil
		}
		p.cut = len(p.vals)
		any = any || p.cut > p.old
	}
	if !any {
		return false, nil
	}
	// Semi-naive product: with d the rightmost fresh coordinate, positions
	// before d draw from their full pools, position d from its fresh values
	// only, positions after d from their old pools — every combination with
	// at least one fresh coordinate appears under exactly one d. The
	// rightmost position holding fresh values has only non-empty old pools
	// behind it, so a pass that gets here emits.
	for d := range pos {
		if pos[d].cut == pos[d].old {
			continue
		}
		if err := es.walk(0, d, emit); err != nil {
			return true, err
		}
	}
	for i := range pos {
		pos[i].old = pos[i].cut
	}
	return true, nil
}

// walk assembles positions i… of the combinations whose rightmost fresh
// coordinate is d and hands each complete one to emit.
func (es *enumState) walk(i, d int, emit func(binding []sym.ID) error) error {
	if i == len(es.binding) {
		return emit(es.binding)
	}
	// An emit that ingests may append to vals; cut keeps that tail out.
	p := &es.pos[i]
	vals := p.vals[:p.cut]
	switch {
	case i == d:
		vals = vals[p.old:]
	case i > d:
		vals = vals[:p.old]
	}
	for _, v := range vals {
		es.binding[i] = v
		if err := es.walk(i+1, d, emit); err != nil {
			return err
		}
	}
	return nil
}
