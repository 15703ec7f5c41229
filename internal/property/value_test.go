package property

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	b := Bool(true)
	if got, ok := b.AsBool(); !ok || !got {
		t.Fatalf("Bool(true).AsBool() = %v, %v", got, ok)
	}
	if _, ok := b.AsInt(); ok {
		t.Fatal("Bool value must not report as int")
	}
	i := Int(42)
	if got, ok := i.AsInt(); !ok || got != 42 {
		t.Fatalf("Int(42).AsInt() = %v, %v", got, ok)
	}
	s := Str("Alice")
	if got, ok := s.AsString(); !ok || got != "Alice" {
		t.Fatalf("Str(Alice).AsString() = %v, %v", got, ok)
	}
	var zero Value
	if zero.IsValid() {
		t.Fatal("zero Value must be invalid")
	}
	if !b.IsValid() || !i.IsValid() || !s.IsValid() {
		t.Fatal("constructed values must be valid")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Bool(true), "T"},
		{Bool(false), "F"},
		{Int(5), "5"},
		{Int(-3), "-3"},
		{Str("x"), "x"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		text string
		want Value
	}{
		{"T", Bool(true)},
		{"F", Bool(false)},
		{"7", Int(7)},
		{"-2", Int(-2)},
		{"Alice", Str("Alice")},
		{"true", Str("true")}, // only T/F are Booleans in spec notation
	}
	for _, c := range cases {
		if got := Parse(c.text); !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestSatisfiesBool(t *testing.T) {
	// impl >= req under F < T.
	if !Bool(true).Satisfies(Bool(true)) {
		t.Error("T must satisfy T")
	}
	if !Bool(true).Satisfies(Bool(false)) {
		t.Error("T must satisfy F")
	}
	if Bool(false).Satisfies(Bool(true)) {
		t.Error("F must not satisfy T")
	}
	if !Bool(false).Satisfies(Bool(false)) {
		t.Error("F must satisfy F")
	}
}

func TestSatisfiesInt(t *testing.T) {
	if !Int(5).Satisfies(Int(4)) {
		t.Error("TrustLevel 5 must satisfy a requirement of 4")
	}
	if Int(3).Satisfies(Int(4)) {
		t.Error("TrustLevel 3 must not satisfy a requirement of 4")
	}
	if !Int(4).Satisfies(Int(4)) {
		t.Error("equal values must satisfy")
	}
}

func TestSatisfiesKindMismatchAndInvalid(t *testing.T) {
	if Int(1).Satisfies(Bool(true)) {
		t.Error("kind mismatch must not satisfy")
	}
	if Str("T").Satisfies(Bool(true)) {
		t.Error("string T must not satisfy Boolean T")
	}
	var zero Value
	if zero.Satisfies(zero) {
		t.Error("invalid must not satisfy invalid")
	}
	if Bool(true).Satisfies(zero) {
		t.Error("nothing satisfies an invalid requirement")
	}
}

func TestSatisfiesString(t *testing.T) {
	if !Str("Alice").Satisfies(Str("Alice")) {
		t.Error("equal strings must satisfy")
	}
	if Str("Bob").Satisfies(Str("Alice")) {
		t.Error("unequal strings must not satisfy")
	}
}

func TestMinMax(t *testing.T) {
	if got := Min(Int(3), Int(5)); !got.Equal(Int(3)) {
		t.Errorf("Min(3,5) = %v", got)
	}
	if got := Max(Int(3), Int(5)); !got.Equal(Int(5)) {
		t.Errorf("Max(3,5) = %v", got)
	}
	if got := Min(Bool(true), Bool(false)); !got.Equal(Bool(false)) {
		t.Errorf("Min(T,F) = %v", got)
	}
	if got := Max(Bool(true), Bool(false)); !got.Equal(Bool(true)) {
		t.Errorf("Max(T,F) = %v", got)
	}
	if Min(Int(1), Bool(true)).IsValid() {
		t.Error("Min across kinds must be invalid")
	}
	if Max(Str("a"), Str("b")).IsValid() {
		t.Error("Max of strings must be invalid (not orderable)")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBool: "bool", KindInt: "interval", KindString: "string", KindInvalid: "invalid",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// randomValue generates an arbitrary valid Value for property-based tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(3) {
	case 0:
		return Bool(r.Intn(2) == 0)
	case 1:
		return Int(int64(r.Intn(21) - 10))
	default:
		return Str(string(rune('a' + r.Intn(26))))
	}
}

// valueGen adapts randomValue to testing/quick.
type valueGen struct{ V Value }

// Generate implements quick.Generator.
func (valueGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueGen{V: randomValue(r)})
}

func TestQuickSatisfiesReflexive(t *testing.T) {
	f := func(g valueGen) bool { return g.V.Satisfies(g.V) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSatisfiesTransitive(t *testing.T) {
	f := func(a, b, c valueGen) bool {
		if a.V.Satisfies(b.V) && b.V.Satisfies(c.V) {
			return a.V.Satisfies(c.V)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(g valueGen) bool {
		// Rendering then parsing any generated value yields an equal value.
		return Parse(g.V.String()).Equal(g.V)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinMaxAgreeWithSatisfies(t *testing.T) {
	f := func(a, b valueGen) bool {
		if a.V.Kind() != b.V.Kind() || a.V.Kind() == KindString {
			return true
		}
		lo, hi := Min(a.V, b.V), Max(a.V, b.V)
		// max satisfies min, and both inputs satisfy min.
		return hi.Satisfies(lo) && a.V.Satisfies(lo) && b.V.Satisfies(lo) &&
			hi.Satisfies(a.V) && hi.Satisfies(b.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
