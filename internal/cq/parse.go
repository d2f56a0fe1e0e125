package cq

import (
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
	p := &parser{src: text}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errf("trailing input %q", p.rest())
	}
	return q, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(text string) *CQ {
	q, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return q
}

// IsUnion reports whether a query text is a union under ParseUCQ's
// line-splitting rules: more than one non-blank, non-comment line. Both
// binaries use it to route a text to Parse or ParseUCQ — /query on every
// request, so it walks the text in place.
func IsUnion(text string) bool {
	lines := 0
	for len(text) > 0 {
		var raw string
		raw, text, _ = strings.Cut(text, "\n")
		if line := strings.TrimSpace(raw); line != "" && !strings.HasPrefix(line, "#") {
			if lines++; lines > 1 {
				return true
			}
		}
	}
	return false
}

// ParseUCQ parses a union of conjunctive queries, one disjunct per line
// (blank lines and '#' comments ignored). All disjuncts must share the head
// predicate and arity.
func ParseUCQ(text string) (*UCQ, error) {
	u := &UCQ{}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		if u.Name == "" {
			u.Name = q.Name
		}
		u.Disjuncts = append(u.Disjuncts, q)
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return u, nil
}

type parser struct {
	src string
	pos int
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

func (p *parser) parseQuery() (*CQ, error) {
	head, err := p.parseAtom()
	if err != nil {
		return nil, fmt.Errorf("head: %w", err)
	}
	p.skipSpace()
	switch {
	case strings.HasPrefix(p.rest(), ":-"):
		p.pos += 2
	case strings.HasPrefix(p.rest(), "<-"):
		p.pos += 2
	default:
		return nil, p.errf("expected \":-\" or \"<-\" after head")
	}
	q := &CQ{Name: head.Pred, Head: head.Args}
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
			return nil, fmt.Errorf("body: %w", err)
		}
		if neg {
			q.Negated = append(q.Negated, a)
		} else {
			q.Body = append(q.Body, a)
		}
		p.skipSpace()
		if p.eof() || p.peek() != ',' {
			break
		}
		p.pos++ // consume ','
	}
	if len(q.Body) == 0 && len(q.Negated) > 0 {
		return nil, p.errf("query with only negated atoms is unsafe")
	}
	if len(q.Body) == 0 {
		return nil, p.errf("query with empty body")
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
	for {
		t, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		a.Args = append(a.Args, t)
		p.skipSpace()
		if p.eof() {
			return Atom{}, p.errf("unterminated atom %s", name)
		}
		switch p.advance() {
		case ',':
			continue
		case ')':
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
