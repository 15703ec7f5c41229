package spec

import (
	"strings"
	"testing"

	"partsvc/internal/property"
)

func TestMailServiceValidates(t *testing.T) {
	if err := MailService().Validate(); err != nil {
		t.Fatalf("canonical mail spec must validate: %v", err)
	}
}

func TestMailServiceShape(t *testing.T) {
	s := MailService()
	if got := len(s.Components); got != 6 {
		t.Errorf("mail spec has 6 components/views, got %d", got)
	}
	mc, ok := s.Component(CompMailClient)
	if !ok {
		t.Fatal("MailClient missing")
	}
	if mc.IsView() {
		t.Error("MailClient is not a view")
	}
	req, ok := requiresInterface(mc, IfaceServer)
	if !ok {
		t.Fatal("MailClient must require ServerInterface")
	}
	if req.Props[PropConfidentiality].LitValue() != property.Bool(true) {
		t.Error("MailClient requires Confidentiality=T")
	}
	vms, ok := s.Component(CompViewMailServer)
	if !ok {
		t.Fatal("ViewMailServer missing")
	}
	if !vms.IsView() || vms.Kind != DataView || vms.Represents != CompMailServer {
		t.Errorf("ViewMailServer must be a data view of MailServer: %+v", vms)
	}
	if vms.Behaviors.RRF != 0.2 {
		t.Errorf("ViewMailServer RRF = %v, want 0.2", vms.Behaviors.RRF)
	}
	vmc, _ := s.Component(CompViewMailClient)
	if vmc.Kind != ObjectView {
		t.Error("ViewMailClient must be an object view")
	}
	ms, _ := s.Component(CompMailServer)
	if ms.Behaviors.CapacityRPS != 1000 {
		t.Errorf("MailServer capacity = %v, want 1000", ms.Behaviors.CapacityRPS)
	}
	if len(ms.Requires) != 0 {
		t.Error("MailServer requires nothing (chain terminator)")
	}
}

func TestImplementersOf(t *testing.T) {
	s := MailService()
	impls := s.ImplementersOf(IfaceServer)
	names := map[string]bool{}
	for _, c := range impls {
		names[c.Name] = true
	}
	for _, want := range []string{CompMailServer, CompEncryptor, CompViewMailServer} {
		if !names[want] {
			t.Errorf("%s must implement ServerInterface; got %v", want, names)
		}
	}
	if names[CompDecryptor] {
		t.Error("Decryptor does not implement ServerInterface")
	}
	if got := s.ImplementersOf("NoSuch"); got != nil {
		t.Errorf("unknown interface has no implementers, got %v", got)
	}
}

func TestViewsOf(t *testing.T) {
	s := MailService()
	views := s.ViewsOf(CompMailServer)
	if len(views) != 1 || views[0].Name != CompViewMailServer {
		t.Errorf("ViewsOf(MailServer) = %v", views)
	}
}

func TestConditionsHold(t *testing.T) {
	s := MailService()
	mc, _ := s.Component(CompMailClient)
	alice := property.Scope{Extra: property.Set{PropUser: property.Str("Alice")}}
	carol := property.Scope{Extra: property.Set{PropUser: property.Str("Carol")}}
	if !mc.ConditionsHold(alice) {
		t.Error("MailClient must deploy for Alice")
	}
	if mc.ConditionsHold(carol) {
		t.Error("MailClient must not deploy for Carol (access-control condition)")
	}
	vms, _ := s.Component(CompViewMailServer)
	trusted := property.Scope{Node: property.Set{PropTrustLevel: property.Int(4)}}
	untrusted := property.Scope{Node: property.Set{PropTrustLevel: property.Int(1)}}
	if !vms.ConditionsHold(trusted) {
		t.Error("ViewMailServer must deploy on a trust-4 node")
	}
	if vms.ConditionsHold(untrusted) {
		t.Error("ViewMailServer must not deploy on a trust-1 node")
	}
}

func TestInterfaceSpecEvalProps(t *testing.T) {
	s := MailService()
	vms, _ := s.Component(CompViewMailServer)
	impl, _ := vms.ImplementsInterface(IfaceServer)
	sc := property.Scope{Node: property.Set{PropTrustLevel: property.Int(3)}}
	got, err := impl.EvalProps(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !got[PropTrustLevel].Equal(property.Int(3)) {
		t.Errorf("factored TrustLevel = %v, want 3", got[PropTrustLevel])
	}
	if !got[PropConfidentiality].Equal(property.Bool(true)) {
		t.Errorf("Confidentiality = %v, want T", got[PropConfidentiality])
	}
	// Unbound scope must error.
	if _, err := impl.EvalProps(property.Scope{}); err == nil {
		t.Error("evaluating Node.TrustLevel without a node scope must fail")
	}
}

func TestInterfaceSpecString(t *testing.T) {
	s := MailService()
	mc, _ := s.Component(CompMailClient)
	req, _ := requiresInterface(mc, IfaceServer)
	got := req.String()
	if !strings.Contains(got, "ServerInterface(") || !strings.Contains(got, "Confidentiality=T") || !strings.Contains(got, "TrustLevel=4") {
		t.Errorf("InterfaceSpec.String() = %q", got)
	}
	bare := InterfaceSpec{Name: "X"}
	if bare.String() != "X" {
		t.Errorf("bare spec string = %q", bare.String())
	}
}

func TestBehaviorsEffectiveRRF(t *testing.T) {
	if got := (Behaviors{}).EffectiveRRF(); got != 1 {
		t.Errorf("zero RRF normalizes to 1, got %v", got)
	}
	if got := (Behaviors{RRF: 0.2}).EffectiveRRF(); got != 0.2 {
		t.Errorf("explicit RRF preserved, got %v", got)
	}
}

func TestViewKindString(t *testing.T) {
	for k, want := range map[ViewKind]string{NotView: "component", ObjectView: "object", DataView: "data"} {
		if got := k.String(); got != want {
			t.Errorf("ViewKind(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestInterfaceDeclHasProperty(t *testing.T) {
	d := InterfaceDecl{Name: "I", Properties: []string{"A", "B"}}
	if !d.HasProperty("A") || d.HasProperty("C") {
		t.Error("HasProperty wrong")
	}
}

func TestServiceAccessorsMissing(t *testing.T) {
	s := MailService()
	if _, ok := s.Component("NoSuch"); ok {
		t.Error("unknown component must not resolve")
	}
	if _, ok := s.Interface("NoSuch"); ok {
		t.Error("unknown interface must not resolve")
	}
	if _, ok := s.PropertyType("NoSuch"); ok {
		t.Error("unknown property must not resolve")
	}
	if ty, ok := s.PropertyType(PropTrustLevel); !ok || ty.Kind != property.KindInt {
		t.Errorf("TrustLevel type = %v, %v", ty, ok)
	}
}

// requiresInterface returns the component's Requires entry for the
// named interface, if present.
func requiresInterface(c Component, name string) (InterfaceSpec, bool) {
	for _, is := range c.Requires {
		if is.Name == name {
			return is, true
		}
	}
	return InterfaceSpec{}, false
}
