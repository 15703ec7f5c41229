package property

import "testing"

// FuzzParseExpr throws arbitrary text at the specification's expression
// and condition parsers: neither may panic, and a condition that is
// accepted must survive a trip through its own notation — parsing what
// String renders yields the same condition.
func FuzzParseExpr(f *testing.F) {
	for _, seed := range []string{
		"", "T", "F", "4", "-17", "Alice", "Node.TrustLevel", " Link.Confidentiality ",
		"User = Alice", "Node.TrustLevel in (2,5)", "Node.TrustLevel >= 5", "X == T",
		"TrustLevel = Node.TrustLevel", "a in (5,2)", "a in (1,2", "= 3", "a >=", "a in b >= 3", "a==b=c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		e := ParseExpr(text)
		_ = e.String()
		_, _ = e.Eval(Scope{})
		c, err := ParseCondition(text)
		if err != nil {
			return
		}
		_ = c.Holds(Scope{})
		again, err := ParseCondition(c.String())
		if err != nil {
			t.Fatalf("%q parses to %+v, whose notation %q does not parse: %v", text, c, c.String(), err)
		}
		if again != c {
			t.Fatalf("%q parses to %+v, whose notation %q parses to %+v", text, c, c.String(), again)
		}
	})
}
