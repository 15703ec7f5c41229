package property

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestConfidentialityRuleFig4 verifies the exact truth table of Figure 4.
func TestConfidentialityRuleFig4(t *testing.T) {
	rule := ConfidentialityRule("Confidentiality")
	cases := []struct {
		in, env, out bool
	}{
		{true, true, true},   // (In:T) x (Env:T) = T
		{false, true, false}, // (In:F) x (Env:ANY) = F
		{false, false, false},
		{true, false, false}, // (In:ANY) x (Env:F) = F
	}
	for _, c := range cases {
		got, err := rule.Apply(Bool(c.in), Bool(c.env))
		if err != nil {
			t.Fatalf("Apply(%v,%v): %v", c.in, c.env, err)
		}
		if !got.Equal(Bool(c.out)) {
			t.Errorf("Apply(In:%v, Env:%v) = %v, want %v", Bool(c.in), Bool(c.env), got, Bool(c.out))
		}
	}
}

func TestModRuleMissingEnvPassesThrough(t *testing.T) {
	rule := ConfidentialityRule("Confidentiality")
	got, err := rule.Apply(Bool(true), Value{})
	if err != nil || !got.Equal(Bool(true)) {
		t.Errorf("missing env must pass input through: %v, %v", got, err)
	}
}

func TestModRuleNoMatchErrors(t *testing.T) {
	rule := ModRule{Property: "X", Rules: []Rule{
		{In: Exactly(Int(1)), Env: Exactly(Int(1)), Out: OutIn},
	}}
	if _, err := rule.Apply(Int(2), Int(2)); err == nil {
		t.Error("unmatched rule table without default must error")
	}
}

func TestModRuleDefault(t *testing.T) {
	d := OutEnv
	rule := ModRule{Property: "X", Default: &d}
	got, err := rule.Apply(Int(9), Int(3))
	if err != nil || !got.Equal(Int(3)) {
		t.Errorf("default OutEnv: got %v, %v", got, err)
	}
}

func TestCapRule(t *testing.T) {
	rule := CapRule("TrustLevel")
	got, err := rule.Apply(Int(5), Int(2))
	if err != nil || !got.Equal(Int(2)) {
		t.Errorf("cap must take min: %v, %v", got, err)
	}
	got, err = rule.Apply(Int(2), Int(5))
	if err != nil || !got.Equal(Int(2)) {
		t.Errorf("cap must take min: %v, %v", got, err)
	}
}

func TestCapRuleKindMismatchErrors(t *testing.T) {
	rule := CapRule("TrustLevel")
	if _, err := rule.Apply(Int(5), Bool(true)); err == nil {
		t.Error("min across kinds must surface an error")
	}
}

func TestOutcomes(t *testing.T) {
	if got := OutLit(Int(7)).Apply(Int(1), Int(2)); !got.Equal(Int(7)) {
		t.Errorf("OutLit = %v", got)
	}
	if got := OutIn.Apply(Int(1), Int(2)); !got.Equal(Int(1)) {
		t.Errorf("OutIn = %v", got)
	}
	if got := OutEnv.Apply(Int(1), Int(2)); !got.Equal(Int(2)) {
		t.Errorf("OutEnv = %v", got)
	}
	if got := OutMax.Apply(Int(1), Int(2)); !got.Equal(Int(2)) {
		t.Errorf("OutMax = %v", got)
	}
}

func TestPatternMatching(t *testing.T) {
	if !Any.Matches(Int(3)) || !Any.Matches(Bool(false)) {
		t.Error("ANY must match everything")
	}
	p := Exactly(Int(3))
	if !p.Matches(Int(3)) || p.Matches(Int(4)) {
		t.Error("Exactly must match only its value")
	}
}

func TestRuleTableApplySet(t *testing.T) {
	table := RuleTable{
		"Confidentiality": ConfidentialityRule("Confidentiality"),
		"TrustLevel":      CapRule("TrustLevel"),
	}
	impl := Set{"Confidentiality": Bool(true), "TrustLevel": Int(5), "User": Str("Alice")}
	env := Set{"Confidentiality": Bool(false), "TrustLevel": Int(3)}
	out, err := table.ApplySetRO(impl, env)
	if err != nil {
		t.Fatal(err)
	}
	if !out["Confidentiality"].Equal(Bool(false)) {
		t.Error("confidentiality must be lost across an insecure environment")
	}
	if !out["TrustLevel"].Equal(Int(3)) {
		t.Error("trust must be capped by the environment")
	}
	if !out["User"].Equal(Str("Alice")) {
		t.Error("properties without rules are environment-transparent")
	}
}

func TestRuleTableApplySetSecureEnv(t *testing.T) {
	table := RuleTable{"Confidentiality": ConfidentialityRule("Confidentiality")}
	impl := Set{"Confidentiality": Bool(true)}
	env := Set{"Confidentiality": Bool(true)}
	out, err := table.ApplySetRO(impl, env)
	if err != nil {
		t.Fatal(err)
	}
	if !out["Confidentiality"].Equal(Bool(true)) {
		t.Error("confidentiality must survive a secure environment")
	}
}

func TestRuleTableApplySetError(t *testing.T) {
	table := RuleTable{"X": {Property: "X"}} // empty table, no default
	if _, err := table.ApplySetRO(Set{"X": Int(1)}, Set{"X": Int(2)}); err == nil {
		t.Error("rule failure must propagate from ApplySetRO")
	}
}

func TestRuleAndTableStrings(t *testing.T) {
	rule := ConfidentialityRule("Confidentiality")
	s := rule.String()
	for _, want := range []string{"PropertyModificationRule Confidentiality", "(In: T) x (Env: T) = (Out: T)", "(In: ANY) x (Env: F) = (Out: F)"} {
		if !strings.Contains(s, want) {
			t.Errorf("rule string missing %q:\n%s", want, s)
		}
	}
	for _, c := range []struct {
		o    Outcome
		want string
	}{{OutIn, "IN"}, {OutEnv, "ENV"}, {OutMin, "MIN"}, {OutMax, "MAX"}, {OutLit(Int(3)), "3"}} {
		if got := c.o.String(); got != c.want {
			t.Errorf("Outcome.String() = %q, want %q", got, c.want)
		}
	}
}

// TestQuickConfidentialityIsAnd: the Figure 4 table is Boolean AND.
func TestQuickConfidentialityIsAnd(t *testing.T) {
	rule := ConfidentialityRule("C")
	f := func(in, env bool) bool {
		got, err := rule.Apply(Bool(in), Bool(env))
		return err == nil && got.Equal(Bool(in && env))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCapRuleIdempotentAndCommutative: min-capping is idempotent
// and commutative, so repeated traversals of the same environment do not
// further degrade a property.
func TestQuickCapRuleIdempotentAndCommutative(t *testing.T) {
	rule := CapRule("TL")
	f := func(a, b int8) bool {
		x, y := Int(int64(a)), Int(int64(b))
		once, err1 := rule.Apply(x, y)
		twice, err2 := rule.Apply(once, y)
		swapped, err3 := rule.Apply(y, x)
		return err1 == nil && err2 == nil && err3 == nil &&
			once.Equal(twice) && once.Equal(swapped)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
