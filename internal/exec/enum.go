package exec

import (
	"slices"

	"toorjah/internal/sym"
)

// enumState is one access pattern's view of its input domains — a cache
// node's in the optimized executor, a relation's in the naive one — and of
// how much of their cross product it has already enumerated. The domain
// pools only ever grow (the cache database is monotone within an execution),
// so enumerating, each pass, exactly the combinations that contain at least
// one value first derived since the previous pass visits every candidate
// binding exactly once across the whole execution. The executors therefore
// need no per-binding tried set: a binding a pass appends is new by
// construction.
//
// Each position's pool is one slice cut by a watermark (enumPos), maintained
// from deltas: the executor appends whatever values an extraction
// contributes the moment it lands, so a pass never evaluates a rule — it
// walks the pools it finds. Nothing is ingested while a pass runs, so the
// pools a pass walks hold still under it.
//
// States come from the execution's scratch and go back with it, so the
// pools below keep their capacity from one execution to the next.
type enumState struct {
	fired   bool      // the empty binding () was enumerated (no-input patterns)
	pos     []enumPos // per input position
	binding []sym.ID  // the leading coordinates of the combinations being assembled
}

// enumPos is the enumerator's view of one input position's domain: one pool
// of values in first-seen order, cut by a watermark. vals[:old] were
// enumerated by earlier passes; vals[old:] are fresh.
type enumPos struct {
	vals []sym.ID
	seen sym.RefTable // references into vals
	old  int
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
		p.vals, p.old = p.vals[:0], 0
	}
}

// next is one pass: it appends to dst the candidate bindings no earlier pass
// has enumerated, one input position's ID apiece, and returns dst and how
// many bindings it appended — one, with no ID, for the free access of a
// pattern without inputs. Its cost is the bindings it appends. While any
// input position's domain is still empty no binding is complete, so nothing
// is appended and no state is consumed: the values the other positions
// already derived stay fresh for the first pass that can combine them.
func (es *enumState) next(dst []sym.ID) ([]sym.ID, int) {
	pos := es.pos
	if len(pos) == 0 {
		// A pattern with no input attributes has the single free access ().
		if es.fired {
			return dst, 0
		}
		es.fired = true
		return dst, 1
	}
	any := false
	for i := range pos {
		p := &pos[i]
		if len(p.vals) == 0 {
			return dst, 0
		}
		any = any || len(p.vals) > p.old
	}
	if !any {
		return dst, 0
	}
	// Semi-naive product: with d the rightmost fresh coordinate, positions
	// before d draw from their full pools, position d from its fresh values
	// only, positions after d from their old pools — every combination with
	// at least one fresh coordinate appears under exactly one d. The
	// rightmost position holding fresh values has only non-empty old pools
	// behind it, so a pass that gets here appends.
	start := len(dst)
	for d := range pos {
		if len(pos[d].vals) > pos[d].old {
			dst = es.walk(dst, 0, d)
		}
	}
	for i := range pos {
		pos[i].old = len(pos[i].vals)
	}
	return dst, (len(dst) - start) / len(pos)
}

// walk appends to dst the combinations whose rightmost fresh coordinate is
// d, with es.binding[:i] as their leading coordinates. The last position
// writes each binding in place: the leading coordinates, then its own value.
func (es *enumState) walk(dst []sym.ID, i, d int) []sym.ID {
	p := &es.pos[i]
	vals := p.vals
	switch {
	case i == d:
		vals = vals[p.old:]
	case i > d:
		vals = vals[:p.old]
	}
	if last := len(es.pos) - 1; i < last {
		for _, v := range vals {
			es.binding[i] = v
			dst = es.walk(dst, i+1, d)
		}
		return dst
	}
	if i == 0 {
		return append(dst, vals...) // one input: the pool slice is the bindings
	}
	lead, w := es.binding[:i], i+1
	at := len(dst)
	dst = slices.Grow(dst, len(vals)*w)[:at+len(vals)*w]
	for _, v := range vals {
		b := dst[at : at+w : at+w]
		for j, x := range lead {
			b[j] = x
		}
		b[i] = v
		at += w
	}
	return dst
}
