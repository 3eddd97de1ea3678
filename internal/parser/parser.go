package parser

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/query"
	"repro/internal/relation"
)

// parser is a recursive-descent parser over the token slice of one
// source text. Token texts are substrings of src.
type parser struct {
	src  string
	toks []tok
	pos  int

	// scratch collects one argument list; buf backs it for the common
	// short lists.
	scratch []query.Term
	buf     [8]query.Term
	// atoms and terms back the relation atoms of one parse and their
	// argument lists: each atom is an element of atoms and its list a
	// capped window of terms, so a query's atoms cost two allocations.
	atoms []query.Atom
	terms []query.Term
}

func newParser(src string) (*parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	p.scratch = p.buf[:0]
	return p, nil
}

func (p *parser) peek() tok { return p.toks[p.pos] }

func (p *parser) peekSkipNL() tok {
	i := p.pos
	for p.toks[i].kind == tokNewline {
		i++
	}
	return p.toks[i]
}

func (p *parser) advance() tok {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.advance()
	}
}

// nextNoNL advances past newlines and returns the next significant token.
func (p *parser) nextNoNL() tok {
	p.skipNewlines()
	return p.advance()
}

func (p *parser) text(t tok) string { return t.text(p.src) }

// errorf builds an error positioned at token t.
func (p *parser) errorf(t tok, format string, args ...any) error {
	return errorAt(p.src, t.begin, format, args...)
}

func (p *parser) expect(k tokKind) (tok, error) {
	t := p.nextNoNL()
	if t.kind != k {
		return t, p.errorf(t, "expected %s, got %s", k, t.describe(p.src))
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.nextNoNL()
	if t.kind != tokIdent || p.text(t) != kw {
		return p.errorf(t, "expected %q, got %s", kw, t.describe(p.src))
	}
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peekSkipNL()
	return t.kind == tokIdent && p.text(t) == kw
}

// expectEOF fails unless only newlines remain.
func (p *parser) expectEOF() error {
	if t := p.nextNoNL(); t.kind != tokEOF {
		return p.errorf(t, "trailing input at %s", t.describe(p.src))
	}
	return nil
}

// isReserved reports the words that cannot be variables or relation
// names in formulas.
func isReserved(s string) bool {
	switch s {
	case "and", "or", "not", "implies", "exists", "forall", "true", "false", "union":
		return true
	}
	return false
}

// ParseFormula parses an FO formula.
func ParseFormula(src string) (query.Formula, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseQuery parses a named query "Name(v1, ..., vk) := formula".
func ParseQuery(src string) (*query.Query, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	name, head, err := p.parseHead()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	q, err := formulaQuery(name, head, f)
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseCQ parses a conjunctive query in rule form
// "Name(t1, ..., tk) :- atom, ..., atom" (equalities allowed among the
// atoms). It also accepts ":=" bodies that happen to be conjunctive; a
// ":=" body holding a word or operator no conjunctive query has (not, or,
// implies, forall, false, !=) is rejected at that token, before anything
// is built.
func ParseCQ(src string) (*query.CQ, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	name, head, err := p.parseHead()
	if err != nil {
		return nil, err
	}
	def := p.nextNoNL()
	switch def.kind {
	case tokRuleDef:
		return p.parseRule(name, head)
	case tokAssign:
		if t, found := p.findNonConjunctive(); found {
			word := p.text(t)
			if t.kind == tokNeq {
				word = "!="
			}
			return nil, p.errorf(t, "query %s is not conjunctive: %q", name, word)
		}
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOF(); err != nil {
			return nil, err
		}
		return conjunctive(name, head, f)
	default:
		return nil, p.errorf(def, "expected ':-' or ':=', got %s", def.describe(p.src))
	}
}

// ParseServing parses a serving query in either syntax with one lex and
// one parse, choosing the form from the separator after the head. Rule
// form ":-", and ":=" text whose body is conjunctive, yield exactly what
// ParseCQ followed by CQ.Query yields; any other ":=" text yields exactly
// what ParseQuery yields. So it succeeds on the same inputs as trying
// ParseCQ first and ParseQuery second, with the same result.
func ParseServing(src string) (*query.Query, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	name, head, err := p.parseHead()
	if err != nil {
		return nil, err
	}
	def := p.nextNoNL()
	switch def.kind {
	case tokRuleDef:
		cq, err := p.parseRule(name, head)
		if err != nil {
			return nil, err
		}
		return cq.Query()
	case tokAssign:
		_, nonConj := p.findNonConjunctive()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOF(); err != nil {
			return nil, err
		}
		if !nonConj {
			if cq, err := conjunctive(name, head, f); err == nil {
				return cq.Query()
			}
		}
		return formulaQuery(name, head, f)
	default:
		return nil, p.errorf(def, "expected ':-' or ':=', got %s", def.describe(p.src))
	}
}

// findNonConjunctive returns the first token from the current position on
// that no conjunctive body can hold: not, or, implies, forall, false, or
// '!='. Every one of them parses to a node AsCQ rejects, or fails to
// parse.
func (p *parser) findNonConjunctive() (tok, bool) {
	for _, t := range p.toks[p.pos:] {
		switch t.kind {
		case tokNeq:
			return t, true
		case tokIdent:
			switch p.text(t) {
			case "not", "or", "implies", "forall", "false":
				return t, true
			}
		}
	}
	return tok{}, false
}

// ParseUCQ parses "cq union cq union ...".
func ParseUCQ(src string) (*query.UCQ, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var disjuncts []*query.CQ
	for {
		name, head, err := p.parseHead()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRuleDef); err != nil {
			return nil, err
		}
		atoms, eqs, err := p.parseRuleBody()
		if err != nil {
			return nil, err
		}
		cq, err := query.NewCQ(name, head, atoms, eqs)
		if err != nil {
			return nil, err
		}
		disjuncts = append(disjuncts, cq)
		if !p.atKeyword("union") {
			break
		}
		p.nextNoNL() // consume 'union'
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return query.NewUCQ(disjuncts[0].Name, disjuncts...)
}

// parseRule parses the body of a rule-form query, after its ":-", to the
// end of the input.
func (p *parser) parseRule(name string, head []query.Term) (*query.CQ, error) {
	atoms, eqs, err := p.parseRuleBody()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return query.NewCQ(name, head, atoms, eqs)
}

// conjunctive views "Name(head) := f" as a CQ. Constant head terms are
// dropped, as CQ.Query drops them.
func conjunctive(name string, head []query.Term, f query.Formula) (*query.CQ, error) {
	q := &query.Query{Name: name, Head: varNames(head), Body: f}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	cq, ok := query.AsCQ(q)
	if !ok {
		return nil, fmt.Errorf("query %s is not conjunctive", name)
	}
	return cq, nil
}

// formulaQuery builds the FO query Name(head) := f; FO heads hold
// variables only.
func formulaQuery(name string, head []query.Term, f query.Formula) (*query.Query, error) {
	for _, t := range head {
		if !t.IsVar() {
			return nil, fmt.Errorf("query %s: constant %s in FO head", name, t)
		}
	}
	return query.NewQuery(name, varNames(head), f)
}

func varNames(terms []query.Term) []string {
	n := 0
	for _, t := range terms {
		if t.IsVar() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, t := range terms {
		if t.IsVar() {
			out = append(out, t.Name())
		}
	}
	return out
}

// parseHead parses Name(term, ..., term).
func (p *parser) parseHead() (string, []query.Term, error) {
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return "", nil, err
	}
	name := p.text(nameTok)
	if isReserved(name) {
		return "", nil, p.errorf(nameTok, "reserved word %q as query name", name)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return "", nil, err
	}
	args, err := p.parseArgs()
	if err != nil {
		return "", nil, err
	}
	var head []query.Term
	if len(args) > 0 {
		head = append(head, args...)
	}
	return name, head, nil
}

// parseArgs parses "term, ..., term)" after an opening parenthesis. The
// list it returns is scratch space, valid until the next call.
func (p *parser) parseArgs() ([]query.Term, error) {
	args := p.scratch[:0]
	if p.peekSkipNL().kind != tokRParen {
		for {
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			args = append(args, t)
			if p.peekSkipNL().kind != tokComma {
				break
			}
			p.nextNoNL()
		}
	}
	p.scratch = args
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return args, nil
}

// newAtom builds the relation atom rel(args...) in the parse's atom and
// term slabs. A slab that runs out is replaced by one sized from the
// tokens left: every atom still to come has a '(', and every argument is
// followed by a ',' or a ')'.
func (p *parser) newAtom(rel string, args []query.Term) *query.Atom {
	if len(p.atoms) == cap(p.atoms) {
		p.atoms = make([]query.Atom, 0, 1+p.countLeft(tokLParen))
	}
	a := query.Atom{Rel: rel}
	if len(args) > 0 {
		if cap(p.terms)-len(p.terms) < len(args) {
			p.terms = make([]query.Term, 0, len(args)+p.countLeft(tokComma)+p.countLeft(tokRParen))
		}
		start := len(p.terms)
		p.terms = append(p.terms, args...)
		a.Args = p.terms[start:len(p.terms):len(p.terms)]
	}
	p.atoms = append(p.atoms, a)
	return &p.atoms[len(p.atoms)-1]
}

// countLeft counts the tokens of kind k from the current position on.
func (p *parser) countLeft(k tokKind) int {
	n := 0
	for _, t := range p.toks[p.pos:] {
		if t.kind == k {
			n++
		}
	}
	return n
}

func (p *parser) parseRuleBody() (atoms []*query.Atom, eqs []*query.Eq, err error) {
	if n := p.countLeft(tokLParen); n > 0 {
		atoms = make([]*query.Atom, 0, n)
	}
	for {
		f, err := p.parseAtomic()
		if err != nil {
			return nil, nil, err
		}
		switch n := f.(type) {
		case *query.Atom:
			atoms = append(atoms, n)
		case *query.Eq:
			eqs = append(eqs, n)
		default:
			return nil, nil, fmt.Errorf("rule body may contain only atoms and equalities, got %s", f)
		}
		if p.peekSkipNL().kind != tokComma {
			return atoms, eqs, nil
		}
		p.nextNoNL()
	}
}

// Formula grammar, loosest first.
func (p *parser) parseFormula() (query.Formula, error) { return p.parseImplies() }

func (p *parser) parseImplies() (query.Formula, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("implies") {
		return l, nil
	}
	p.nextNoNL()
	r, err := p.parseImplies() // right associative
	if err != nil {
		return nil, err
	}
	return query.NewImplies(l, r), nil
}

func (p *parser) parseOr() (query.Formula, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		p.nextNoNL()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = query.NewOr(l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (query.Formula, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		p.nextNoNL()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = query.NewAnd(l, r)
	}
	return l, nil
}

func (p *parser) parseUnary() (query.Formula, error) {
	switch {
	case p.atKeyword("not"):
		p.nextNoNL()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return query.NewNot(f), nil
	case p.atKeyword("exists"), p.atKeyword("forall"):
		kw := p.text(p.nextNoNL())
		vars, err := p.parseVarList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		body, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if kw == "exists" {
			return query.NewExists(vars, body), nil
		}
		return query.NewForall(vars, body), nil
	default:
		return p.parsePrimary()
	}
}

// parseVarList parses "v, ..., v" into a slice of exactly that length.
func (p *parser) parseVarList() ([]string, error) {
	start := p.pos
	n := 0
	for {
		t, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if name := p.text(t); isReserved(name) {
			return nil, p.errorf(t, "reserved word %q as variable", name)
		}
		n++
		if p.peekSkipNL().kind != tokComma {
			break
		}
		p.nextNoNL()
	}
	vars := make([]string, 0, n)
	for _, t := range p.toks[start:p.pos] {
		if t.kind == tokIdent {
			vars = append(vars, p.text(t))
		}
	}
	return vars, nil
}

func (p *parser) parsePrimary() (query.Formula, error) {
	t := p.peekSkipNL()
	if t.kind == tokLParen {
		p.nextNoNL()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return f, nil
	}
	if t.kind == tokIdent && p.text(t) == "true" {
		p.nextNoNL()
		return query.True, nil
	}
	if t.kind == tokIdent && p.text(t) == "false" {
		p.nextNoNL()
		return query.False, nil
	}
	return p.parseAtomic()
}

// parseAtomic parses a relation atom R(t, ..., t) or an (in)equality
// t = t / t != t.
func (p *parser) parseAtomic() (query.Formula, error) {
	t := p.peekSkipNL()
	if t.kind == tokIdent && !isReserved(p.text(t)) {
		// Lookahead: ident '(' is an atom; otherwise a term in an equality.
		save := p.pos
		p.nextNoNL()
		if p.peekSkipNL().kind == tokLParen {
			p.nextNoNL()
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return p.newAtom(p.text(t), args), nil
		}
		p.pos = save
	}
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	op := p.nextNoNL()
	switch op.kind {
	case tokEq:
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return query.NewEq(l, r), nil
	case tokNeq:
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return query.NewNot(query.NewEq(l, r)), nil
	default:
		return nil, p.errorf(op, "expected '=' or '!=', got %s", op.describe(p.src))
	}
}

func (p *parser) parseTerm() (query.Term, error) {
	t := p.nextNoNL()
	switch t.kind {
	case tokIdent:
		name := p.text(t)
		if isReserved(name) {
			return query.Term{}, p.errorf(t, "reserved word %q as term", name)
		}
		return query.Var(name), nil
	case tokNumber:
		n, err := parseInt(p.src, t)
		if err != nil {
			return query.Term{}, err
		}
		return query.ConstInt(n), nil
	case tokString:
		return query.ConstStr(p.text(t)), nil
	default:
		return query.Term{}, p.errorf(t, "expected term, got %s", t.describe(p.src))
	}
}

// Catalog is the result of parsing a catalog file: a relational schema and
// an access schema over it.
type Catalog struct {
	Relational *relation.Schema
	Access     *access.Schema
}

// ParseCatalog parses relation/access/fd declarations, one per line.
func ParseCatalog(src string) (*Catalog, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	rel := &relation.Schema{}
	relSchema, err := relation.NewSchema()
	if err != nil {
		return nil, err
	}
	rel = relSchema
	var pendingAccess []access.Entry

	for {
		p.skipNewlines()
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return nil, p.errorf(t, "expected declaration, got %s", t.describe(p.src))
		}
		switch p.text(t) {
		case "relation":
			p.advance()
			rs, err := p.parseRelationDecl()
			if err != nil {
				return nil, err
			}
			if err := rel.Add(rs); err != nil {
				return nil, err
			}
		case "access":
			p.advance()
			e, err := p.parseAccessDecl()
			if err != nil {
				return nil, err
			}
			pendingAccess = append(pendingAccess, e)
		case "fd":
			p.advance()
			e, err := p.parseFDDecl()
			if err != nil {
				return nil, err
			}
			pendingAccess = append(pendingAccess, e)
		default:
			return nil, p.errorf(t, "unknown declaration %q", p.text(t))
		}
	}
	acc := access.New(rel)
	for _, e := range pendingAccess {
		if err := acc.Add(e); err != nil {
			return nil, err
		}
	}
	return &Catalog{Relational: rel, Access: acc}, nil
}

func (p *parser) parseRelationDecl() (relation.RelSchema, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return relation.RelSchema{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return relation.RelSchema{}, err
	}
	attrs, err := p.parseIdentList()
	if err != nil {
		return relation.RelSchema{}, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return relation.RelSchema{}, err
	}
	return relation.NewRelSchema(p.text(name), attrs...)
}

func (p *parser) parseIdentList() ([]string, error) {
	var out []string
	for {
		t, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		out = append(out, p.text(t))
		if p.peekSkipNL().kind != tokComma {
			return out, nil
		}
		p.nextNoNL()
	}
}

// parseAccessDecl parses: R(x1, ..., xk -> * | y1, ..., ym) limit N time T.
// An empty X side is written as "()" contents starting directly with "->".
func (p *parser) parseAccessDecl() (access.Entry, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return access.Entry{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return access.Entry{}, err
	}
	var on []string
	if p.peekSkipNL().kind == tokIdent {
		on, err = p.parseIdentList()
		if err != nil {
			return access.Entry{}, err
		}
	}
	if _, err := p.expect(tokArrow); err != nil {
		return access.Entry{}, err
	}
	var proj []string
	isStar := false
	if p.peekSkipNL().kind == tokStar {
		p.nextNoNL()
		isStar = true
	} else {
		proj, err = p.parseIdentList()
		if err != nil {
			return access.Entry{}, err
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return access.Entry{}, err
	}
	if err := p.expectKeyword("limit"); err != nil {
		return access.Entry{}, err
	}
	nTok, err := p.expect(tokNumber)
	if err != nil {
		return access.Entry{}, err
	}
	n, err := parseInt(p.src, nTok)
	if err != nil {
		return access.Entry{}, err
	}
	if err := p.expectKeyword("time"); err != nil {
		return access.Entry{}, err
	}
	tTok, err := p.expect(tokNumber)
	if err != nil {
		return access.Entry{}, err
	}
	tv, err := parseInt(p.src, tTok)
	if err != nil {
		return access.Entry{}, err
	}
	if isStar {
		return access.Plain(p.text(name), on, int(n), int(tv)), nil
	}
	return access.Embedded(p.text(name), on, proj, int(n), int(tv)), nil
}

// parseFDDecl parses: fd R: x1, ..., xk -> y1, ..., ym time T.
func (p *parser) parseFDDecl() (access.Entry, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return access.Entry{}, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return access.Entry{}, err
	}
	x, err := p.parseIdentList()
	if err != nil {
		return access.Entry{}, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return access.Entry{}, err
	}
	y, err := p.parseIdentList()
	if err != nil {
		return access.Entry{}, err
	}
	tv := int64(1)
	if p.atKeyword("time") {
		p.nextNoNL()
		tTok, err := p.expect(tokNumber)
		if err != nil {
			return access.Entry{}, err
		}
		tv, err = parseInt(p.src, tTok)
		if err != nil {
			return access.Entry{}, err
		}
	}
	return access.FD(p.text(name), x, y, int(tv)), nil
}
