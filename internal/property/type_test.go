package property

import (
	"strings"
	"testing"
)

func TestBoolTypeCheck(t *testing.T) {
	ty := BoolType("Confidentiality")
	if err := ty.Check(Bool(true)); err != nil {
		t.Errorf("T must be allowed: %v", err)
	}
	if err := ty.Check(Int(1)); err == nil {
		t.Error("int must be rejected by a Boolean declaration")
	}
}

func TestIntervalTypeCheck(t *testing.T) {
	ty := IntervalType("TrustLevel", 1, 5)
	for i := int64(1); i <= 5; i++ {
		if err := ty.Check(Int(i)); err != nil {
			t.Errorf("value %d in (1,5) must be allowed: %v", i, err)
		}
	}
	if err := ty.Check(Int(0)); err == nil {
		t.Error("0 must be rejected by range (1,5)")
	}
	if err := ty.Check(Int(6)); err == nil {
		t.Error("6 must be rejected by range (1,5)")
	}
	if err := ty.Check(Str("3")); err == nil {
		t.Error("string must be rejected by an interval declaration")
	}
}

func TestStringAndEnumTypeCheck(t *testing.T) {
	st := StringType("User")
	if err := st.Check(Str("anything")); err != nil {
		t.Errorf("unconstrained string must allow any value: %v", err)
	}
	et := Type{Name: "Codec", Kind: KindString, Enum: []string{"h261", "mjpeg"}}
	if err := et.Check(Str("h261")); err != nil {
		t.Errorf("enumerated value must be allowed: %v", err)
	}
	if err := et.Check(Str("vp9")); err == nil {
		t.Error("non-enumerated value must be rejected")
	}
}

func TestTypeString(t *testing.T) {
	for _, c := range []struct {
		ty   Type
		want string
	}{
		{BoolType("C"), "C: Boolean {T,F}"},
		{IntervalType("TL", 1, 5), "TL: Interval (1,5)"},
		{StringType("U"), "U: String"},
		{Type{Name: "E", Kind: KindString, Enum: []string{"a", "b"}}, "E: Enum {a,b}"},
	} {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSetCloneIndependence(t *testing.T) {
	s := Set{"A": Int(1)}
	c := s.Clone()
	c["A"] = Int(2)
	c["B"] = Int(3)
	if !s["A"].Equal(Int(1)) || len(s) != 1 {
		t.Error("Clone must be independent of the original")
	}
}

func TestSetMerge(t *testing.T) {
	s := Set{"A": Int(1), "B": Int(2)}
	m := s.Merge(Set{"B": Int(9), "C": Int(3)})
	if !m["A"].Equal(Int(1)) || !m["B"].Equal(Int(9)) || !m["C"].Equal(Int(3)) {
		t.Errorf("Merge result wrong: %v", m)
	}
	if !s["B"].Equal(Int(2)) {
		t.Error("Merge must not mutate the receiver")
	}
}

func TestSetSatisfies(t *testing.T) {
	impl := Set{"Confidentiality": Bool(true), "TrustLevel": Int(5)}
	if !impl.Satisfies(Set{"TrustLevel": Int(4)}) {
		t.Error("TL 5 must satisfy required TL 4")
	}
	if !impl.Satisfies(Set{"Confidentiality": Bool(true), "TrustLevel": Int(5)}) {
		t.Error("exact match must satisfy")
	}
	if !impl.Satisfies(nil) {
		t.Error("empty requirement is always satisfied")
	}
	if impl.Satisfies(Set{"Missing": Int(1)}) {
		t.Error("requirement on an absent property must fail")
	}
	if impl.Satisfies(Set{"TrustLevel": Int(6)}) {
		t.Error("insufficient value must fail")
	}
}

func TestSetFingerprintStable(t *testing.T) {
	a := Set{"B": Int(2), "A": Bool(true)}
	b := Set{"A": Bool(true), "B": Int(2)}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprints must be order-independent")
	}
	if a.Fingerprint() != "A=T;B=2" {
		t.Errorf("fingerprint = %q", a.Fingerprint())
	}
	if (Set{}).Fingerprint() != "" {
		t.Error("empty set fingerprint must be empty")
	}
}

func TestSetString(t *testing.T) {
	s := Set{"B": Int(2), "A": Bool(true)}
	got := s.String()
	if !strings.Contains(got, "A=T") || !strings.Contains(got, "B=2") {
		t.Errorf("Set.String() = %q", got)
	}
	if strings.Index(got, "A=") > strings.Index(got, "B=") {
		t.Errorf("Set.String() must be sorted: %q", got)
	}
}
