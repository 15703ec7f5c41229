// Package property implements the typed property domain of the
// partitionable services framework (HPDC'02, Section 3.1).
//
// Properties are service-specific parameters that annotate interfaces and
// influence component linkage: the framework never interprets their
// semantics, only their value domain. The package provides typed values
// (Boolean, integer interval, string, enumeration), property sets,
// declaration types with allowable-value checking, expressions that can
// reference the deployment environment (e.g. Node.TrustLevel), and the
// property modification rules of Figure 4, which model how an environment
// transforms an implemented interface property (e.g. Confidentiality is
// lost across an insecure link).
package property

import "strconv"

// Kind enumerates the value kinds a property can take.
type Kind int

const (
	// KindInvalid is the zero Kind; it marks an absent or malformed value.
	KindInvalid Kind = iota
	// KindBool is a Boolean property (the paper's "T"/"F" values).
	KindBool
	// KindInt is an integer property, typically constrained to an interval.
	KindInt
	// KindString is a free-form string property (e.g. User = Alice).
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "interval"
	case KindString:
		return "string"
	default:
		return "invalid"
	}
}

// Value is an immutable tagged union holding one property value.
// The zero Value is invalid and reports IsValid() == false.
type Value struct {
	kind Kind
	b    bool
	i    int64
	s    string
}

// Bool returns a Boolean property value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Int returns an integer property value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Str returns a string property value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// IsValid reports whether v holds a value.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// AsBool returns the Boolean payload; ok is false if v is not a Boolean.
func (v Value) AsBool() (b, ok bool) { return v.b, v.kind == KindBool }

// AsInt returns the integer payload; ok is false if v is not an integer.
func (v Value) AsInt() (i int64, ok bool) { return v.i, v.kind == KindInt }

// AsString returns the string payload; ok is false if v is not a string.
func (v Value) AsString() (s string, ok bool) { return v.s, v.kind == KindString }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool { return v == o }

// String renders the value in the paper's notation: T/F for Booleans,
// decimal for integers, and the raw text for strings.
func (v Value) String() string {
	switch v.kind {
	case KindBool:
		if v.b {
			return "T"
		}
		return "F"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return v.s
	default:
		return "<invalid>"
	}
}

// Satisfies reports whether an implemented value satisfies a required
// value under the framework's "superset" compatibility relation
// (Section 3.3, condition 2):
//
//   - Boolean: an implementation providing T satisfies both T and F
//     requirements; an implementation providing F satisfies only F.
//     (Order F < T: impl >= req.)
//   - Integer: impl >= req. This captures, for example, a TrustLevel-5
//     MailServer satisfying a client that requires TrustLevel 4.
//   - String: exact match.
//
// Values of different kinds never satisfy each other, and an invalid
// value satisfies nothing (and nothing satisfies a requirement for an
// invalid value).
func (v Value) Satisfies(req Value) bool {
	if v.kind != req.kind || v.kind == KindInvalid {
		return false
	}
	switch v.kind {
	case KindBool:
		return v.b || !req.b
	case KindInt:
		return v.i >= req.i
	case KindString:
		return v.s == req.s
	}
	return false
}

// Parse converts the paper's textual notation into a Value: "T"/"F"
// become Booleans, decimal integers become KindInt, anything else is a
// string. Parse never fails; use Type.Check to validate against a
// declaration.
func Parse(text string) Value {
	switch text {
	case "T":
		return Bool(true)
	case "F":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return Int(i)
	}
	return Str(text)
}

// Min returns the smaller of two values of the same orderable kind
// (Bool with F < T, or Int). It returns an invalid Value if the kinds
// differ or are not orderable.
func Min(a, b Value) Value {
	if a.kind != b.kind {
		return Value{}
	}
	switch a.kind {
	case KindBool:
		return Bool(a.b && b.b)
	case KindInt:
		if a.i <= b.i {
			return a
		}
		return b
	}
	return Value{}
}

// Max returns the larger of two values of the same orderable kind.
// It returns an invalid Value if the kinds differ or are not orderable.
func Max(a, b Value) Value {
	if a.kind != b.kind {
		return Value{}
	}
	switch a.kind {
	case KindBool:
		return Bool(a.b || b.b)
	case KindInt:
		if a.i >= b.i {
			return a
		}
		return b
	}
	return Value{}
}
