package property

import (
	"fmt"
	"strings"
)

// Pattern matches a value in a modification rule. The paper's Figure 4
// uses literal values and the wildcard ANY.
type Pattern struct {
	any bool
	lit Value
}

// Any is the wildcard pattern, matching every value.
var Any = Pattern{any: true}

// Exactly returns a pattern matching only v.
func Exactly(v Value) Pattern { return Pattern{lit: v} }

// Matches reports whether the pattern matches v.
func (p Pattern) Matches(v Value) bool { return p.any || p.lit.Equal(v) }

// String renders the pattern in Figure 4 notation.
func (p Pattern) String() string {
	if p.any {
		return "ANY"
	}
	return p.lit.String()
}

// Outcome computes the output value of a modification rule from the
// input (implemented) value and the environment value.
type Outcome struct {
	kind outKind
	lit  Value
}

type outKind int

const (
	outLit outKind = iota
	outIn
	outEnv
	outMin
	outMax
)

// OutLit yields the fixed value v.
func OutLit(v Value) Outcome { return Outcome{kind: outLit, lit: v} }

// OutIn passes the input value through unchanged.
var OutIn = Outcome{kind: outIn}

// OutEnv yields the environment value.
var OutEnv = Outcome{kind: outEnv}

// OutMin yields min(input, environment); this models properties such as
// TrustLevel that are capped by the weakest environment they cross.
var OutMin = Outcome{kind: outMin}

// OutMax yields max(input, environment).
var OutMax = Outcome{kind: outMax}

// Apply computes the outcome value.
func (o Outcome) Apply(in, env Value) Value {
	switch o.kind {
	case outLit:
		return o.lit
	case outIn:
		return in
	case outEnv:
		return env
	case outMin:
		return Min(in, env)
	case outMax:
		return Max(in, env)
	}
	return Value{}
}

// String renders the outcome.
func (o Outcome) String() string {
	switch o.kind {
	case outLit:
		return o.lit.String()
	case outIn:
		return "IN"
	case outEnv:
		return "ENV"
	case outMin:
		return "MIN"
	case outMax:
		return "MAX"
	}
	return "<invalid>"
}

// Rule is one row of a property modification table: when the input and
// environment values match the patterns, the output is computed by the
// outcome. Figure 4's Confidentiality table is, in this notation:
//
//	(In: T) x (Env: T) = (Out: T)
//	(In: F) x (Env: ANY) = (Out: F)
//	(In: ANY) x (Env: F) = (Out: F)
type Rule struct {
	In  Pattern
	Env Pattern
	Out Outcome
}

// String renders the rule in Figure 4 notation.
func (r Rule) String() string {
	return fmt.Sprintf("(In: %s) x (Env: %s) = (Out: %s)", r.In, r.Env, r.Out)
}

// ModRule is a named property modification rule: an ordered rule table
// for one property. Rules are tried in order; the first match wins.
type ModRule struct {
	// Property names the property the table modifies.
	Property string
	// Rules is the ordered rule table.
	Rules []Rule
	// Default, when set, is used when no rule matches. When unset,
	// a non-matching application is an error.
	Default *Outcome
}

// Apply transforms the implemented value in across an environment whose
// relevant property value is env. A missing environment value (invalid
// env) means the environment does not constrain the property; the input
// passes through unchanged.
func (m ModRule) Apply(in, env Value) (Value, error) {
	if !env.IsValid() {
		return in, nil
	}
	for _, r := range m.Rules {
		if r.In.Matches(in) && r.Env.Matches(env) {
			out := r.Out.Apply(in, env)
			if !out.IsValid() {
				return Value{}, fmt.Errorf("property: rule %v for %s produced invalid value from in=%v env=%v", r, m.Property, in, env)
			}
			return out, nil
		}
	}
	if m.Default != nil {
		out := m.Default.Apply(in, env)
		if !out.IsValid() {
			return Value{}, fmt.Errorf("property: default outcome for %s produced invalid value from in=%v env=%v", m.Property, in, env)
		}
		return out, nil
	}
	return Value{}, fmt.Errorf("property: no modification rule for %s matches in=%v env=%v", m.Property, in, env)
}

// String renders the table in specification notation.
func (m ModRule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PropertyModificationRule %s:", m.Property)
	for _, r := range m.Rules {
		b.WriteString("\n  ")
		b.WriteString(r.String())
	}
	return b.String()
}

// RuleTable maps property names to their modification rules. Properties
// without an entry are environment-transparent: they cross any
// environment unchanged.
type RuleTable map[string]ModRule

// Apply transforms one implemented property value across an environment.
func (t RuleTable) Apply(property string, in, env Value) (Value, error) {
	m, ok := t[property]
	if !ok {
		return in, nil
	}
	return m.Apply(in, env)
}

// ApplySetRO transforms a whole implemented property set across an
// environment property set, returning the effective set visible on the
// far side of the environment. This is the planner's view of "what the
// client component actually receives" (Section 3.3, condition 2). It
// is copy-on-write: when the environment leaves every property
// unchanged — the common case for trusted, secured paths — the input
// set itself is returned and no allocation happens. The result must therefore be
// treated as read-only whenever the input must stay intact.
func (t RuleTable) ApplySetRO(impl, env Set) (Set, error) {
	var out Set
	for name, in := range impl {
		v, err := t.Apply(name, in, env[name])
		if err != nil {
			return nil, err
		}
		if out == nil {
			if v.Equal(in) {
				continue
			}
			out = make(Set, len(impl))
			for n2, v2 := range impl {
				out[n2] = v2
			}
		}
		out[name] = v
	}
	if out == nil {
		return impl, nil
	}
	return out, nil
}

// ConfidentialityRule returns Figure 4's rule table for a Boolean
// confidentiality property: the output is T only when both the input
// and the environment are T.
func ConfidentialityRule(name string) ModRule {
	return ModRule{
		Property: name,
		Rules: []Rule{
			{In: Exactly(Bool(true)), Env: Exactly(Bool(true)), Out: OutLit(Bool(true))},
			{In: Exactly(Bool(false)), Env: Any, Out: OutLit(Bool(false))},
			{In: Any, Env: Exactly(Bool(false)), Out: OutLit(Bool(false))},
		},
	}
}

// CapRule returns a rule table that caps an ordered property at the
// environment's value (Out = min(In, Env)); used for TrustLevel-like
// properties.
func CapRule(name string) ModRule {
	d := OutMin
	return ModRule{Property: name, Default: &d}
}
