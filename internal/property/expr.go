package property

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Scope is the environment against which expressions and conditions are
// evaluated at planning time. Node holds the service-relevant properties
// of the candidate node (translated from its credentials), Link those of
// the link (or path) environment, and Extra any request-scoped
// properties (e.g. the requesting user).
type Scope struct {
	Node  Set
	Link  Set
	Extra Set
}

// Lookup resolves a dotted reference such as "Node.TrustLevel",
// "Link.Confidentiality", or a bare name (searched in Extra, then Node,
// then Link).
func (sc Scope) Lookup(ref string) (Value, bool) {
	if dot := strings.IndexByte(ref, '.'); dot >= 0 {
		space, name := ref[:dot], ref[dot+1:]
		switch space {
		case "Node":
			v, ok := sc.Node[name]
			return v, ok
		case "Link", "Env":
			v, ok := sc.Link[name]
			return v, ok
		default:
			return Value{}, false
		}
	}
	for _, s := range []Set{sc.Extra, sc.Node, sc.Link} {
		if v, ok := s[ref]; ok {
			return v, true
		}
	}
	return Value{}, false
}

// Expr is a property-value expression in a service specification: either
// a literal value or a reference into the deployment environment, such
// as the Factors clause "TrustLevel = Node.TrustLevel" of the
// ViewMailServer in Figure 2.
type Expr struct {
	lit Value
	ref string
}

// Lit returns a literal expression.
func Lit(v Value) Expr { return Expr{lit: v} }

// Ref returns an environment-reference expression. The reference uses
// dotted notation ("Node.TrustLevel") or a bare property name.
func Ref(name string) Expr { return Expr{ref: name} }

// IsRef reports whether the expression is an environment reference.
func (e Expr) IsRef() bool { return e.ref != "" }

// LitValue returns the literal value, or an invalid Value for references.
func (e Expr) LitValue() Value { return e.lit }

// IsZero reports whether the expression is empty (neither literal nor
// reference).
func (e Expr) IsZero() bool { return e.ref == "" && !e.lit.IsValid() }

// Eval resolves the expression against a scope.
func (e Expr) Eval(sc Scope) (Value, error) {
	if e.ref == "" {
		if !e.lit.IsValid() {
			return Value{}, fmt.Errorf("property: empty expression")
		}
		return e.lit, nil
	}
	v, ok := sc.Lookup(e.ref)
	if !ok {
		return Value{}, fmt.Errorf("property: reference %q not bound in scope", e.ref)
	}
	return v, nil
}

// String renders the expression in specification notation.
func (e Expr) String() string {
	if e.ref != "" {
		return e.ref
	}
	return e.lit.String()
}

// ParseExpr parses the specification notation for expressions: a dotted
// or known environment reference (contains '.') becomes a Ref, anything
// else a literal parsed with Parse.
func ParseExpr(text string) Expr {
	text = strings.TrimSpace(text)
	if strings.Contains(text, ".") {
		return Ref(text)
	}
	return Lit(Parse(text))
}

// ConstraintOp enumerates the relations a Condition can assert.
type ConstraintOp int

const (
	// OpEq asserts the subject equals (for strings) or satisfies (for
	// ordered kinds) the expression value.
	OpEq ConstraintOp = iota
	// OpExact asserts strict equality regardless of kind ordering.
	OpExact
	// OpIn asserts the subject is an integer within [Lo, Hi].
	OpIn
	// OpGE asserts the subject is an integer >= Lo.
	OpGE
)

// Condition is a deployment condition (the Conditions keyword of the
// specification): it constrains an environment property, gating where a
// component may be instantiated. For example, the MailClient's
// "User = Alice" access-control condition, or the ViewMailServer's
// "Node.TrustLevel in (2,5)" trust condition.
type Condition struct {
	// Subject is the property reference being constrained, e.g.
	// "Node.TrustLevel" or "User".
	Subject string
	// Op is the asserted relation.
	Op ConstraintOp
	// Arg is the right-hand expression for OpEq/OpExact.
	Arg Expr
	// Lo and Hi bound OpIn; Lo alone is used by OpGE.
	Lo, Hi int64
}

// CondEq builds an equality/satisfaction condition.
func CondEq(subject string, v Value) Condition {
	return Condition{Subject: subject, Op: OpEq, Arg: Lit(v)}
}

// CondIn builds an interval-membership condition (inclusive bounds).
func CondIn(subject string, lo, hi int64) Condition {
	return Condition{Subject: subject, Op: OpIn, Lo: lo, Hi: hi}
}

// CondGE builds a lower-bound condition.
func CondGE(subject string, lo int64) Condition {
	return Condition{Subject: subject, Op: OpGE, Lo: lo}
}

// Holds evaluates the condition against the scope. Unresolvable subjects
// fail the condition (a node that does not present a property cannot
// satisfy a constraint on it).
func (c Condition) Holds(sc Scope) bool {
	actual, ok := sc.Lookup(c.Subject)
	if !ok {
		return false
	}
	switch c.Op {
	case OpEq:
		want, err := c.Arg.Eval(sc)
		if err != nil {
			return false
		}
		return actual.Satisfies(want)
	case OpExact:
		want, err := c.Arg.Eval(sc)
		if err != nil {
			return false
		}
		return actual.Equal(want)
	case OpIn:
		i, ok := actual.AsInt()
		return ok && i >= c.Lo && i <= c.Hi
	case OpGE:
		i, ok := actual.AsInt()
		return ok && i >= c.Lo
	}
	return false
}

// String renders the condition in specification notation.
func (c Condition) String() string {
	switch c.Op {
	case OpEq:
		return fmt.Sprintf("%s = %s", c.Subject, c.Arg)
	case OpExact:
		return fmt.Sprintf("%s == %s", c.Subject, c.Arg)
	case OpIn:
		return fmt.Sprintf("%s in (%d,%d)", c.Subject, c.Lo, c.Hi)
	case OpGE:
		return fmt.Sprintf("%s >= %d", c.Subject, c.Lo)
	}
	return c.Subject + " <invalid>"
}

// ParseCondition parses the textual condition forms used in
// specifications: "X = v", "X == v", "X in (lo,hi)", "X >= n". The
// subject X is one property reference — it ends at the first white
// space, '=' or '>' — and the operator follows it, so whatever the value
// v contains (an operator, the word "in") the condition's own notation
// parses back to it.
func ParseCondition(text string) (Condition, error) {
	text = strings.TrimSpace(text)
	malformed := fmt.Errorf("property: malformed condition %q", text)
	end := strings.IndexFunc(text, func(r rune) bool { return unicode.IsSpace(r) || r == '=' || r == '>' })
	if end <= 0 {
		return Condition{}, malformed
	}
	subject, rest := text[:end], strings.TrimSpace(text[end:])
	var op ConstraintOp
	switch {
	case strings.HasPrefix(rest, "in") && len(rest) < len(text)-end: // white space sets the word off
		op, rest = OpIn, rest[2:]
	case strings.HasPrefix(rest, ">="):
		op, rest = OpGE, rest[2:]
	case strings.HasPrefix(rest, "=="):
		op, rest = OpExact, rest[2:]
	case strings.HasPrefix(rest, "="):
		op, rest = OpEq, rest[1:]
	default:
		return Condition{}, malformed
	}
	rhs := strings.TrimSpace(rest)
	if rhs == "" {
		return Condition{}, malformed
	}
	switch op {
	case OpIn:
		lo, hi, err := parseRange(rhs)
		if err != nil {
			return Condition{}, fmt.Errorf("property: condition %q: %w", text, err)
		}
		return CondIn(subject, lo, hi), nil
	case OpGE:
		n, err := strconv.ParseInt(rhs, 10, 64)
		if err != nil {
			return Condition{}, fmt.Errorf("property: condition %q: bad bound: %w", text, err)
		}
		return CondGE(subject, n), nil
	}
	return Condition{Subject: subject, Op: op, Arg: ParseExpr(rhs)}, nil
}

func parseRange(text string) (lo, hi int64, err error) {
	text = strings.TrimSpace(text)
	if len(text) < 2 || text[0] != '(' || text[len(text)-1] != ')' {
		return 0, 0, fmt.Errorf("range %q must be of the form (lo,hi)", text)
	}
	parts := strings.Split(text[1:len(text)-1], ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("range %q must have two bounds", text)
	}
	lo, err = strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: bad lower bound: %w", text, err)
	}
	hi, err = strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: bad upper bound: %w", text, err)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("range %q: upper bound below lower bound", text)
	}
	return lo, hi, nil
}
