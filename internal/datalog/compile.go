package datalog

import (
	"fmt"

	"toorjah/internal/cq"
	"toorjah/internal/sym"
)

// Compiled is one rule made ready to run many times: a nested-loop join in
// a fixed order, its variables numbered into registers, its constants
// interned. When compiled for a body position, the atom there ranges over
// the delta tuples a run is handed instead of its full relation (semi-naive
// differentiation) and is joined first, so the delta is walked once, front
// to back, and needs no index. A Compiled is immutable: any number of
// goroutines may run it at once, each with a Machine of its own.
type Compiled struct {
	rule     *Rule
	deltaPos int
	steps    []step      // the body atoms, in join order
	negated  []checkAtom // tested once every step has matched
	head     []operand
	nregs    int
	width    int // the longest value list a run assembles: key, negated atom or head
}

// operand is where a run finds a value: a register, or, when reg is
// negative, a constant.
type operand struct {
	reg int
	id  sym.ID
}

// step matches one body atom against candidate tuples: the bucket an index
// lookup on the positions already known returns, or the delta.
type step struct {
	pred   string
	delta  bool
	keyPos []int     // the argument positions known before the step …
	key    []operand // … and where their values are
	ops    []op      // what to do with the other arguments, in argument order
}

// op handles one argument of a candidate tuple.
type op struct {
	kind opKind
	pos  int    // the argument's position
	reg  int    // bind, checkReg
	id   sym.ID // checkConst
}

type opKind uint8

const (
	bind       opKind = iota // a variable's first occurrence: load its register
	checkReg                 // a variable repeated within the atom
	checkConst               // a constant of the delta atom
)

// checkAtom is a negated atom: ground, by safety, once the body has matched.
type checkAtom struct {
	pred string
	args []operand
}

// Compile prepares rule r for running with the body atom at deltaPos
// ranging over a delta, or, with deltaPos −1, over full relations only. It
// rejects an unsafe rule: a run reads every head and negated variable from
// a register a positive atom loaded. The rule's constants are interned and
// pinned: a Compiled may outlive any hold. The plans compile rules without
// constants — a query's constants reach an execution through its plan's
// constant vector.
func Compile(r *Rule, deltaPos int) (*Compiled, error) { return compile(r, deltaPos, sym.Intern) }

// CompileUnder is Compile for a rule used only while hold h is active: its
// constants are interned under h, unpinned.
func CompileUnder(h sym.Hold, r *Rule, deltaPos int) (*Compiled, error) {
	return compile(r, deltaPos, h.Intern)
}

func compile(r *Rule, deltaPos int, intern func(string) sym.ID) (*Compiled, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if deltaPos < -1 || deltaPos >= len(r.Body) {
		return nil, fmt.Errorf("rule %s: no body atom at position %d", r, deltaPos)
	}
	c := &Compiled{rule: r, deltaPos: deltaPos}
	// Every variable gets a register where the positive body first mentions
	// it; names are not looked at again.
	regs := make(map[string]int)
	operands := func(a cq.Atom) []operand {
		out := make([]operand, len(a.Args))
		for i, term := range a.Args {
			if !term.IsVar {
				out[i] = operand{reg: -1, id: intern(term.Name)}
				continue
			}
			reg, ok := regs[term.Name]
			if !ok {
				reg = len(regs)
				regs[term.Name] = reg
			}
			out[i] = operand{reg: reg}
		}
		c.width = max(c.width, len(out))
		return out
	}
	body := make([][]operand, len(r.Body))
	for i, a := range r.Body {
		body[i] = operands(a)
	}
	c.nregs = len(regs)
	for _, a := range r.Negated {
		c.negated = append(c.negated, checkAtom{pred: a.Pred, args: operands(a)})
	}
	c.head = operands(r.Head)

	c.steps = make([]step, 0, len(body))
	loadedBy := make([]int, c.nregs) // per register, the step that loads it, counted from 1
	for _, bi := range bodyOrder(body, c.nregs, deltaPos) {
		s := step{pred: r.Body[bi].Pred, delta: bi == deltaPos}
		for pos, o := range body[bi] {
			switch {
			case o.reg >= 0 && loadedBy[o.reg] == 0:
				loadedBy[o.reg] = len(c.steps) + 1
				s.ops = append(s.ops, op{kind: bind, pos: pos, reg: o.reg})
			case o.reg >= 0 && loadedBy[o.reg] == len(c.steps)+1:
				s.ops = append(s.ops, op{kind: checkReg, pos: pos, reg: o.reg})
			case s.delta: // the first step: nothing is loaded, o is a constant
				s.ops = append(s.ops, op{kind: checkConst, pos: pos, id: o.id})
			default:
				s.keyPos = append(s.keyPos, pos)
				s.key = append(s.key, o)
			}
		}
		c.steps = append(c.steps, s)
	}
	return c, nil
}

// bodyOrder returns an evaluation order for the body atoms: delta atom first
// (it is typically smallest), then greedily the atom with the most
// arguments known — constants, and variables of the atoms already placed —
// the leftmost on a tie.
func bodyOrder(body [][]operand, nregs, deltaPos int) []int {
	order := make([]int, 0, len(body))
	placed := make([]bool, nregs)
	used := make([]bool, len(body))
	place := func(i int) {
		order = append(order, i)
		used[i] = true
		for _, o := range body[i] {
			if o.reg >= 0 {
				placed[o.reg] = true
			}
		}
	}
	if deltaPos >= 0 {
		place(deltaPos)
	}
	for len(order) < len(body) {
		best, bestScore := -1, -1
		for i, args := range body {
			if used[i] {
				continue
			}
			score := 0
			for _, o := range args {
				if o.reg < 0 || placed[o.reg] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		place(best)
	}
	return order
}

// Rule returns the rule c was compiled from.
func (c *Compiled) Rule() *Rule { return c.rule }

// Machine is the working memory of running compiled rules — registers, the
// buffer a key, a negated atom or a head is assembled in, the relations of
// the run — kept between runs so that a run allocates nothing. The zero
// value is ready to use. A Machine serves one run at a time: an emit
// callback must not start another on it.
type Machine struct {
	regs, buf []sym.ID
	rels      []*Relation
}

// Run derives the head tuples of the rule over db, in join order, and hands
// each to emit — duplicates included — in a buffer that is valid only
// during the call. delta is what the atom the rule was compiled for ranges
// over; a rule compiled for position −1 ignores it. Relations are resolved
// once, up front: a positive atom over a relation db lacks is an error, a
// negated one holds. A positive atom over an empty relation ends the run
// there, before any lookup: nothing can be derived.
func (c *Compiled) Run(m *Machine, db DB, delta []Tuple, emit func(head Tuple)) error {
	_, err := c.run(m, db, delta, emit)
	return err
}

// Exists reports whether Run would derive anything, stopping at the first
// derivation.
func (c *Compiled) Exists(m *Machine, db DB, delta []Tuple) (bool, error) {
	return c.run(m, db, delta, nil)
}

// run is one pass over the join; a nil emit asks for the first derivation
// only.
func (c *Compiled) run(m *Machine, db DB, delta []Tuple, emit func(Tuple)) (bool, error) {
	if c.deltaPos >= 0 && len(delta) == 0 {
		return false, nil
	}
	m.rels = m.rels[:0]
	defer func() { clear(m.rels) }()
	empty := false
	for i := range c.steps {
		s := &c.steps[i]
		rel := db[s.pred]
		if rel == nil && !s.delta {
			return false, fmt.Errorf("rule %s: unknown relation %s", c.rule, s.pred)
		}
		empty = empty || !s.delta && rel.Len() == 0
		m.rels = append(m.rels, rel)
	}
	if empty {
		return false, nil
	}
	for i := range c.negated {
		m.rels = append(m.rels, db[c.negated[i].pred])
	}
	if cap(m.regs) < c.nregs {
		m.regs = make([]sym.ID, c.nregs)
	}
	if cap(m.buf) < c.width {
		m.buf = make([]sym.ID, c.width)
	}
	x := joinRun{c: c, regs: m.regs[:c.nregs], buf: m.buf[:c.width], rels: m.rels, delta: delta}
	return x.step(0, emit), nil
}

// joinRun is the state of one run. The emit callback travels beside it, as
// an argument: kept in here it would count as escaping, and every caller's
// closure would be allocated.
type joinRun struct {
	c     *Compiled
	regs  []sym.ID
	buf   []sym.ID
	rels  []*Relation // per step, then per negated atom
	delta []Tuple
}

// values assembles operands in the run's buffer. The buffer is free
// whenever a step needs it: a key is dead once its bucket is found.
func (x *joinRun) values(from []operand) []sym.ID {
	out := x.buf[:len(from)]
	for i, o := range from {
		if o.reg >= 0 {
			out[i] = x.regs[o.reg]
		} else {
			out[i] = o.id
		}
	}
	return out
}

// step joins the body atoms from join position k on, under the registers
// the earlier ones loaded, and reports whether the run is over: the first
// derivation was all that was asked for.
func (x *joinRun) step(k int, emit func(Tuple)) (done bool) {
	c := x.c
	if k == len(c.steps) {
		for i := range c.negated {
			if rel := x.rels[k+i]; rel != nil && rel.Contains(x.values(c.negated[i].args)) {
				return false
			}
		}
		if emit == nil {
			return true
		}
		emit(x.values(c.head))
		return false
	}
	s := &c.steps[k]
	candidates := x.delta
	if !s.delta {
		candidates = x.rels[k].Lookup(s.keyPos, x.values(s.key))
	}
candidates:
	for _, t := range candidates {
		for _, o := range s.ops {
			switch o.kind {
			case bind:
				x.regs[o.reg] = t[o.pos]
			case checkReg:
				if x.regs[o.reg] != t[o.pos] {
					continue candidates
				}
			case checkConst:
				if o.id != t[o.pos] {
					continue candidates
				}
			}
		}
		if x.step(k+1, emit) {
			return true
		}
	}
	return false
}
