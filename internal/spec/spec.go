// Package spec implements the declarative service specification language
// of the partitionable services framework (HPDC'02, Section 3.1 and
// Figure 2).
//
// A Service declares properties (the value namespace), interfaces (the
// functionality namespace), and components. Components state which
// interfaces they implement and require — with property values attached —
// plus deployment conditions and resource behaviors. Views are
// customized implementations of a component (object views restrict
// functionality, data views hold partial state) and may be factored into
// multiple run-time configurations by binding properties to the
// deployment environment. Property modification rules (Figure 4) declare
// how an environment transforms implemented properties in transit.
package spec

import (
	"fmt"
	"strings"

	"partsvc/internal/property"
)

// InterfaceDecl declares a service interface and the properties that
// annotate it.
type InterfaceDecl struct {
	// Name identifies the interface.
	Name string
	// Properties lists the names of properties that may be attached to
	// the interface by implementers and requirers.
	Properties []string
}

// HasProperty reports whether the interface declares the named property.
func (d InterfaceDecl) HasProperty(name string) bool {
	for _, p := range d.Properties {
		if p == name {
			return true
		}
	}
	return false
}

// InterfaceSpec is an interface reference inside a component's linkage
// section: the interface name plus property expressions (generated
// values for Implements, required values for Requires).
type InterfaceSpec struct {
	// Name is the referenced interface.
	Name string
	// Props maps property names to value expressions. Expressions may be
	// literals or environment references (e.g. Node.TrustLevel).
	Props map[string]property.Expr
}

// EvalProps resolves all property expressions against a scope, returning
// the concrete property set.
func (is InterfaceSpec) EvalProps(sc property.Scope) (property.Set, error) {
	out := make(property.Set, len(is.Props))
	for name, expr := range is.Props {
		v, err := expr.Eval(sc)
		if err != nil {
			return nil, fmt.Errorf("interface %s, property %s: %w", is.Name, name, err)
		}
		out[name] = v
	}
	return out, nil
}

// String renders the reference in specification notation.
func (is InterfaceSpec) String() string {
	if len(is.Props) == 0 {
		return is.Name
	}
	parts := make([]string, 0, len(is.Props))
	// Sorted for stability.
	set := make(property.Set, len(is.Props))
	for k := range is.Props {
		set[k] = property.Str("")
	}
	for _, k := range set.Names() {
		parts = append(parts, fmt.Sprintf("%s=%s", k, is.Props[k]))
	}
	return fmt.Sprintf("%s(%s)", is.Name, strings.Join(parts, ","))
}

// Behaviors conveys a component's resource requirements (Section 3.1,
// "Behaviors"): per-request CPU cost, request rate capacity, bytes per
// request/response, and the Request Reduction Factor.
type Behaviors struct {
	// CapacityRPS is the component's request-serving capacity in
	// requests per second (the paper's "Capacity: 1000"). Zero means
	// unspecified (unbounded for planning purposes).
	CapacityRPS float64
	// RRF is the Request Reduction Factor: the ratio of requests issued
	// along required linkages per request served on an implemented
	// interface. Zero means unspecified; EffectiveRRF normalizes it to 1.
	RRF float64
	// CPUMSPerRequest is the CPU time consumed per request,
	// milliseconds.
	CPUMSPerRequest float64
	// RequestBytes and ResponseBytes are the average sizes of a request
	// and its response on the component's implemented interfaces.
	RequestBytes  int
	ResponseBytes int
}

// EffectiveRRF returns the RRF, treating the zero value as 1 (every
// request is forwarded; no caching benefit).
func (b Behaviors) EffectiveRRF() float64 {
	if b.RRF == 0 {
		return 1
	}
	return b.RRF
}

// ViewKind distinguishes the two view flavors of the object-views model.
type ViewKind int

const (
	// NotView marks a regular component.
	NotView ViewKind = iota
	// ObjectView is a view providing part of the original component's
	// functionality (e.g. ViewMailClient).
	ObjectView
	// DataView is a view holding part of the original component's state
	// (e.g. ViewMailServer).
	DataView
)

// String returns the specification keyword for the kind.
func (k ViewKind) String() string {
	switch k {
	case ObjectView:
		return "object"
	case DataView:
		return "data"
	default:
		return "component"
	}
}

// Component declares one constituent piece of a service. Views are
// components whose Represents field names the component they are a view
// of; their Factors clause binds properties to the environment so that a
// single view definition can be instantiated into multiple run-time
// configurations.
type Component struct {
	// Name identifies the component.
	Name string
	// Represents, when non-empty, marks this component as a view of the
	// named component (the Represents keyword).
	Represents string
	// Kind distinguishes object views from data views; NotView for
	// regular components.
	Kind ViewKind
	// Factors binds property names to expressions evaluated at
	// deployment time (the Factors keyword).
	Factors map[string]property.Expr
	// Implements lists interfaces the component provides, with generated
	// property values.
	Implements []InterfaceSpec
	// Requires lists interfaces the component needs, with required
	// property values.
	Requires []InterfaceSpec
	// Conditions gate where the component may be instantiated.
	Conditions []property.Condition
	// Behaviors conveys resource requirements.
	Behaviors Behaviors
}

// IsView reports whether the component is a view.
func (c Component) IsView() bool { return c.Represents != "" }

// ImplementsInterface returns the Implements entry for the named
// interface, if present.
func (c Component) ImplementsInterface(name string) (InterfaceSpec, bool) {
	for _, is := range c.Implements {
		if is.Name == name {
			return is, true
		}
	}
	return InterfaceSpec{}, false
}

// ConditionsHold evaluates all deployment conditions against the scope.
func (c Component) ConditionsHold(sc property.Scope) bool {
	for _, cond := range c.Conditions {
		if !cond.Holds(sc) {
			return false
		}
	}
	return true
}

// Service is a complete declarative service specification.
type Service struct {
	// Name identifies the service in the lookup namespace.
	Name string
	// Properties declares the property namespace.
	Properties []property.Type
	// Interfaces declares the interface namespace.
	Interfaces []InterfaceDecl
	// Components lists components and views.
	Components []Component
	// ModRules are the property modification rules (Figure 4).
	ModRules property.RuleTable
}

// PropertyType returns the declaration of the named property.
func (s *Service) PropertyType(name string) (property.Type, bool) {
	for _, p := range s.Properties {
		if p.Name == name {
			return p, true
		}
	}
	return property.Type{}, false
}

// Interface returns the declaration of the named interface.
func (s *Service) Interface(name string) (InterfaceDecl, bool) {
	for _, i := range s.Interfaces {
		if i.Name == name {
			return i, true
		}
	}
	return InterfaceDecl{}, false
}

// Component returns the named component or view.
func (s *Service) Component(name string) (Component, bool) {
	for _, c := range s.Components {
		if c.Name == name {
			return c, true
		}
	}
	return Component{}, false
}

// ImplementersOf returns the components that implement the named
// interface, in declaration order.
func (s *Service) ImplementersOf(iface string) []Component {
	var out []Component
	for _, c := range s.Components {
		if _, ok := c.ImplementsInterface(iface); ok {
			out = append(out, c)
		}
	}
	return out
}

// ViewsOf returns the views whose Represents names the given component.
func (s *Service) ViewsOf(component string) []Component {
	var out []Component
	for _, c := range s.Components {
		if c.Represents == component {
			out = append(out, c)
		}
	}
	return out
}
