package property

import (
	"fmt"
	"sort"
	"strings"
)

// Type declares a property: its name, value kind, and allowable values.
// It corresponds to the <Property> element of the declarative service
// specification (Figure 2).
type Type struct {
	// Name identifies the property within a service specification.
	Name string
	// Kind is the value kind of the property.
	Kind Kind
	// Lo and Hi bound KindInt properties (inclusive). They are ignored
	// for other kinds.
	Lo, Hi int64
	// Enum, when non-empty, restricts KindString properties to the
	// listed values.
	Enum []string
}

// BoolType declares a Boolean property with values {T, F}.
func BoolType(name string) Type { return Type{Name: name, Kind: KindBool} }

// IntervalType declares an integer property with the inclusive value
// range [lo, hi], matching the paper's "Type: Interval, ValueRange" form.
func IntervalType(name string, lo, hi int64) Type {
	return Type{Name: name, Kind: KindInt, Lo: lo, Hi: hi}
}

// StringType declares an unconstrained string property.
func StringType(name string) Type { return Type{Name: name, Kind: KindString} }

// Check reports whether v is an allowable value for the declaration.
// A nil error means the value is allowed.
func (t Type) Check(v Value) error {
	if v.kind != t.Kind {
		return fmt.Errorf("property %s: value %v has kind %v, want %v", t.Name, v, v.kind, t.Kind)
	}
	switch t.Kind {
	case KindInt:
		if v.i < t.Lo || v.i > t.Hi {
			return fmt.Errorf("property %s: value %d outside range (%d,%d)", t.Name, v.i, t.Lo, t.Hi)
		}
	case KindString:
		if len(t.Enum) > 0 {
			for _, e := range t.Enum {
				if e == v.s {
					return nil
				}
			}
			return fmt.Errorf("property %s: value %q not in enumeration {%s}", t.Name, v.s, strings.Join(t.Enum, ","))
		}
	}
	return nil
}

// String renders the declaration in a compact, stable form.
func (t Type) String() string {
	switch t.Kind {
	case KindBool:
		return fmt.Sprintf("%s: Boolean {T,F}", t.Name)
	case KindInt:
		return fmt.Sprintf("%s: Interval (%d,%d)", t.Name, t.Lo, t.Hi)
	case KindString:
		if len(t.Enum) > 0 {
			return fmt.Sprintf("%s: Enum {%s}", t.Name, strings.Join(t.Enum, ","))
		}
		return fmt.Sprintf("%s: String", t.Name)
	}
	return t.Name + ": <invalid>"
}

// Set is a property assignment: property name to value. It models the
// properties attached to an interface instance, a node, or a link
// environment. The nil map is a valid empty Set for reads.
type Set map[string]Value

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Merge returns a new Set containing s overlaid with o: values in o win.
func (s Set) Merge(o Set) Set {
	c := s.Clone()
	for k, v := range o {
		c[k] = v
	}
	return c
}

// Satisfies reports whether the set, viewed as implemented properties,
// satisfies every requirement in req under Value.Satisfies. Properties
// required but absent from s fail the check (there is nothing to offer);
// extra properties in s are permitted (superset semantics).
func (s Set) Satisfies(req Set) bool {
	for name, want := range req {
		have, ok := s[name]
		if !ok || !have.Satisfies(want) {
			return false
		}
	}
	return true
}

// Names returns the sorted property names present in the set.
func (s Set) Names() []string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Fingerprint returns a canonical textual form of the set, suitable as a
// map key (placement identities, request and reuse-set fingerprints).
func (s Set) Fingerprint() string {
	if len(s) == 0 {
		return ""
	}
	var b strings.Builder
	for i, name := range s.Names() {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(s[name].String())
	}
	return b.String()
}

// String renders the set as "name=value, ..." in sorted order.
func (s Set) String() string {
	parts := make([]string, 0, len(s))
	for _, name := range s.Names() {
		parts = append(parts, fmt.Sprintf("%s=%s", name, s[name]))
	}
	return strings.Join(parts, ", ")
}
