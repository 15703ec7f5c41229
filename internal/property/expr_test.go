package property

import "testing"

func testScope() Scope {
	return Scope{
		Node:  Set{"TrustLevel": Int(4), "User": Str("Alice")},
		Link:  Set{"Confidentiality": Bool(false)},
		Extra: Set{"Requested": Str("ClientInterface")},
	}
}

func TestScopeLookupDotted(t *testing.T) {
	sc := testScope()
	if v, ok := sc.Lookup("Node.TrustLevel"); !ok || !v.Equal(Int(4)) {
		t.Errorf("Node.TrustLevel = %v, %v", v, ok)
	}
	if v, ok := sc.Lookup("Link.Confidentiality"); !ok || !v.Equal(Bool(false)) {
		t.Errorf("Link.Confidentiality = %v, %v", v, ok)
	}
	if v, ok := sc.Lookup("Env.Confidentiality"); !ok || !v.Equal(Bool(false)) {
		t.Errorf("Env alias must resolve to link scope: %v, %v", v, ok)
	}
	if _, ok := sc.Lookup("Node.Missing"); ok {
		t.Error("missing dotted name must not resolve")
	}
	if _, ok := sc.Lookup("Unknown.X"); ok {
		t.Error("unknown namespace must not resolve")
	}
}

func TestScopeLookupBare(t *testing.T) {
	sc := testScope()
	if v, ok := sc.Lookup("User"); !ok || !v.Equal(Str("Alice")) {
		t.Errorf("bare User = %v, %v", v, ok)
	}
	if v, ok := sc.Lookup("Requested"); !ok || !v.Equal(Str("ClientInterface")) {
		t.Errorf("bare lookup must search Extra first: %v, %v", v, ok)
	}
	if v, ok := sc.Lookup("Confidentiality"); !ok || !v.Equal(Bool(false)) {
		t.Errorf("bare lookup falls through to link scope: %v, %v", v, ok)
	}
	if _, ok := sc.Lookup("Nope"); ok {
		t.Error("unbound bare name must not resolve")
	}
}

func TestExprEval(t *testing.T) {
	sc := testScope()
	if v, err := Lit(Int(7)).Eval(sc); err != nil || !v.Equal(Int(7)) {
		t.Errorf("literal eval = %v, %v", v, err)
	}
	if v, err := Ref("Node.TrustLevel").Eval(sc); err != nil || !v.Equal(Int(4)) {
		t.Errorf("ref eval = %v, %v", v, err)
	}
	if _, err := Ref("Node.Missing").Eval(sc); err == nil {
		t.Error("unbound ref must error")
	}
	if _, err := (Expr{}).Eval(sc); err == nil {
		t.Error("zero expression must error")
	}
}

func TestExprAccessors(t *testing.T) {
	r := Ref("Node.X")
	if !r.IsRef() || r.String() != "Node.X" || r.IsZero() {
		t.Error("Ref accessors wrong")
	}
	l := Lit(Bool(true))
	if l.IsRef() || !l.LitValue().Equal(Bool(true)) || l.IsZero() {
		t.Error("Lit accessors wrong")
	}
	if !(Expr{}).IsZero() {
		t.Error("zero Expr must report IsZero")
	}
}

func TestParseExpr(t *testing.T) {
	if e := ParseExpr("Node.TrustLevel"); !e.IsRef() || e.String() != "Node.TrustLevel" {
		t.Errorf("ParseExpr ref = %v", e)
	}
	if e := ParseExpr("T"); e.IsRef() || !e.LitValue().Equal(Bool(true)) {
		t.Errorf("ParseExpr T = %v", e)
	}
	if e := ParseExpr(" 4 "); !e.LitValue().Equal(Int(4)) {
		t.Errorf("ParseExpr 4 = %v", e)
	}
	if e := ParseExpr("Alice"); !e.LitValue().Equal(Str("Alice")) {
		t.Errorf("ParseExpr Alice = %v", e)
	}
}

func TestConditionHolds(t *testing.T) {
	sc := testScope()
	cases := []struct {
		c    Condition
		want bool
	}{
		{CondEq("User", Str("Alice")), true},
		{CondEq("User", Str("Bob")), false},
		{CondEq("Node.TrustLevel", Int(3)), true}, // satisfaction: 4 >= 3
		{Condition{Subject: "Node.TrustLevel", Op: OpExact, Arg: Lit(Int(3))}, false},
		{Condition{Subject: "Node.TrustLevel", Op: OpExact, Arg: Lit(Int(4))}, true},
		{CondIn("Node.TrustLevel", 2, 5), true},
		{CondIn("Node.TrustLevel", 1, 3), false},
		{CondGE("Node.TrustLevel", 4), true},
		{CondGE("Node.TrustLevel", 5), false},
		{CondEq("Missing", Str("x")), false},
		{CondIn("User", 1, 5), false}, // non-int subject fails interval
	}
	for _, c := range cases {
		if got := c.c.Holds(sc); got != c.want {
			t.Errorf("condition %v holds = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestConditionString(t *testing.T) {
	for _, c := range []struct {
		c    Condition
		want string
	}{
		{CondEq("User", Str("Alice")), "User = Alice"},
		{Condition{Subject: "X", Op: OpExact, Arg: Lit(Int(2))}, "X == 2"},
		{CondIn("Node.TrustLevel", 1, 3), "Node.TrustLevel in (1,3)"},
		{CondGE("Node.TrustLevel", 2), "Node.TrustLevel >= 2"},
	} {
		if got := c.c.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseCondition(t *testing.T) {
	cases := []struct {
		text string
		want Condition
	}{
		{"User = Alice", CondEq("User", Str("Alice"))},
		{"X == 2", Condition{Subject: "X", Op: OpExact, Arg: Lit(Int(2))}},
		{"Node.TrustLevel in (1,3)", CondIn("Node.TrustLevel", 1, 3)},
		{"Node.TrustLevel >= 2", CondGE("Node.TrustLevel", 2)},
	}
	for _, c := range cases {
		got, err := ParseCondition(c.text)
		if err != nil {
			t.Errorf("ParseCondition(%q) error: %v", c.text, err)
			continue
		}
		if got.String() != c.want.String() {
			t.Errorf("ParseCondition(%q) = %v, want %v", c.text, got, c.want)
		}
	}
	for _, bad := range []string{"", "no-relation", "X in (3,1)", "X in [1,3]", "X in (a,b)", "X >= q", " = v"} {
		if _, err := ParseCondition(bad); err == nil {
			t.Errorf("ParseCondition(%q) must fail", bad)
		}
	}
}

func TestParseConditionRefRHS(t *testing.T) {
	c, err := ParseCondition("TrustLevel = Node.TrustLevel")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Arg.IsRef() || c.Arg.String() != "Node.TrustLevel" {
		t.Errorf("RHS reference not parsed: %v", c)
	}
	if !c.Holds(testScope()) {
		t.Error("self-referential condition must hold (4 satisfies 4)")
	}
}
