package cq

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// Parse parses a single conjunctive query in Datalog notation:
//
//	q(N) :- r1(A, N, Y1), r2('volare', Y2, A), not r3(A)
//
// The separator may be ":-" or "<-". Identifiers beginning with an
// upper-case letter or underscore are variables; single-quoted strings and
// all other identifiers are constants.
func Parse(text string) (*CQ, error) {
	p := newParser(text)
	q, err := p.parse(text)
	if err != nil {
		return nil, err
	}
	return &q, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(text string) *CQ {
	q, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseUCQ parses a query text as a union of conjunctive queries: one
// disjunct per line, blank lines and lines starting with '#' ignored, all
// disjuncts sharing the head predicate and arity. A CQ is a union of one: a
// one-line text fails as Parse fails, a union of several names its line.
func ParseUCQ(text string) (*UCQ, error) {
	p := newParser(text)
	var first CQ       // the union's first disjunct
	var more []*CQ     // and the ones after it
	n, errLine := 0, 0 // the disjunct lines; the first that fails
	var err error
	for rest, lineNo := text, 1; rest != ""; lineNo++ {
		lo := len(text) - len(rest)
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if t := strings.Trim(line, " \t\r"); t == "" || t[0] == '#' {
			continue
		}
		hi := lo + len(line)
		if strings.Trim(rest, " \t\r\n") == "" { // the blank lines after the last line are space to it
			hi = len(text)
		}
		if n++; err != nil {
			continue
		}
		var q CQ
		switch q, err = p.parse(text[lo:hi]); {
		case err != nil:
			errLine = lineNo
		case n == 1:
			first = q
		default:
			d := q
			more = append(more, &d)
		}
	}
	switch {
	case err != nil && n > 1:
		return nil, fmt.Errorf("line %d: %w", errLine, err)
	case err != nil:
		return nil, err
	case n == 0:
		return nil, errors.New("no query: every line is blank or a comment")
	}
	// A union of one — a CQ, the common case — is a single allocation.
	b := &struct {
		u UCQ
		d [1]*CQ
		q CQ
	}{q: first}
	b.d[0] = &b.q
	u := &b.u
	u.Name, u.Disjuncts = first.Name, append(b.d[:], more...)
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return u, nil
}

// parser parses one line of query text at a time, carving the terms of
// every atom and the positive body of every disjunct from two slices sized
// once for the whole text: every atom opens a '(' and every argument but an
// atom's first follows a ','. A carved slice is capped at its own length.
type parser struct {
	src   string
	pos   int
	terms []Term
	atoms []Atom
}

// newParser sizes the slices for text, to at most 256 slots each: a text
// padded with quoted commas asks for no more memory than its parse needs.
func newParser(text string) parser {
	opens := strings.Count(text, "(")
	return parser{
		terms: make([]Term, 0, min(opens+strings.Count(text, ","), 256)),
		atoms: make([]Atom, 0, min(opens, 256)),
	}
}

// parse parses src as one conjunctive query, to its end.
func (p *parser) parse(src string) (CQ, error) {
	p.src, p.pos = src, 0
	q, err := p.parseQuery()
	if err != nil {
		return CQ{}, err
	}
	p.skipSpace()
	if !p.eof() {
		return CQ{}, p.errf("trailing input %q", p.rest())
	}
	return q, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query parse at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) eof() bool     { return p.pos >= len(p.src) }
func (p *parser) rest() string  { return p.src[p.pos:] }
func (p *parser) peek() byte    { return p.src[p.pos] }
func (p *parser) advance() byte { b := p.src[p.pos]; p.pos++; return b }

func (p *parser) skipSpace() {
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		break
	}
}

func (p *parser) expect(tok string) error {
	p.skipSpace()
	if !strings.HasPrefix(p.rest(), tok) {
		return p.errf("expected %q", tok)
	}
	p.pos += len(tok)
	return nil
}

func (p *parser) parseQuery() (CQ, error) {
	head, err := p.parseAtom()
	if err != nil {
		return CQ{}, fmt.Errorf("head: %w", err)
	}
	p.skipSpace()
	switch {
	case strings.HasPrefix(p.rest(), ":-"):
		p.pos += 2
	case strings.HasPrefix(p.rest(), "<-"):
		p.pos += 2
	default:
		return CQ{}, p.errf("expected \":-\" or \"<-\" after head")
	}
	q, body := CQ{Name: head.Pred, Head: head.Args}, len(p.atoms)
	for {
		p.skipSpace()
		neg := false
		if strings.HasPrefix(p.rest(), "not ") || strings.HasPrefix(p.rest(), "not\t") {
			neg = true
			p.pos += 4
		} else if strings.HasPrefix(p.rest(), "!") {
			neg = true
			p.pos++
		}
		a, err := p.parseAtom()
		if err != nil {
			return CQ{}, fmt.Errorf("body: %w", err)
		}
		if neg {
			q.Negated = append(q.Negated, a)
		} else {
			p.atoms = append(p.atoms, a)
		}
		p.skipSpace()
		if p.eof() || p.peek() != ',' {
			break
		}
		p.pos++ // consume ','
	}
	if len(p.atoms) > body {
		q.Body = p.atoms[body:len(p.atoms):len(p.atoms)]
	}
	if len(q.Body) == 0 && len(q.Negated) > 0 {
		return CQ{}, p.errf("query with only negated atoms is unsafe")
	}
	if len(q.Body) == 0 {
		return CQ{}, p.errf("query with empty body")
	}
	return q, nil
}

func (p *parser) parseAtom() (Atom, error) {
	p.skipSpace()
	name, err := p.parseIdent()
	if err != nil {
		return Atom{}, err
	}
	if err := p.expect("("); err != nil {
		return Atom{}, err
	}
	a := Atom{Pred: name}
	p.skipSpace()
	if !p.eof() && p.peek() == ')' {
		p.pos++
		return a, nil // nullary atom
	}
	from := len(p.terms)
	for {
		t, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		p.terms = append(p.terms, t)
		p.skipSpace()
		if p.eof() {
			return Atom{}, p.errf("unterminated atom %s", name)
		}
		switch p.advance() {
		case ',':
			continue
		case ')':
			a.Args = p.terms[from:len(p.terms):len(p.terms)]
			return a, nil
		default:
			return Atom{}, p.errf("expected ',' or ')' in atom %s", name)
		}
	}
}

func (p *parser) parseTerm() (Term, error) {
	p.skipSpace()
	if p.eof() {
		return Term{}, p.errf("expected term")
	}
	if p.peek() == '\'' {
		p.pos++
		start := p.pos
		for !p.eof() && p.peek() != '\'' {
			p.pos++
		}
		if p.eof() {
			return Term{}, p.errf("unterminated quoted constant")
		}
		val := p.src[start:p.pos]
		p.pos++ // closing quote
		return C(val), nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return Term{}, err
	}
	first := rune(name[0])
	if unicode.IsUpper(first) || first == '_' {
		return V(name), nil
	}
	return C(name), nil
}

func (p *parser) parseIdent() (string, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		c := p.peek()
		if c == '(' || c == ')' || c == ',' || c == ' ' || c == '\t' ||
			c == '\n' || c == '\r' || c == '\'' {
			break
		}
		if c == ':' || c == '<' { // start of the rule separator
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected identifier")
	}
	return p.src[start:p.pos], nil
}
