package spec

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"partsvc/internal/property"
)

func TestXMLRoundTripMailService(t *testing.T) {
	orig := MailService()
	var buf bytes.Buffer
	if err := orig.EncodeXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded spec must validate: %v", err)
	}
	if got.Name != orig.Name {
		t.Errorf("name = %q, want %q", got.Name, orig.Name)
	}
	if len(got.Components) != len(orig.Components) {
		t.Fatalf("component count = %d, want %d", len(got.Components), len(orig.Components))
	}
	for _, oc := range orig.Components {
		gc, ok := got.Component(oc.Name)
		if !ok {
			t.Errorf("component %q lost in round trip", oc.Name)
			continue
		}
		if gc.Represents != oc.Represents || gc.Kind != oc.Kind {
			t.Errorf("component %q view identity changed: %v/%v vs %v/%v", oc.Name, gc.Represents, gc.Kind, oc.Represents, oc.Kind)
		}
		if len(gc.Implements) != len(oc.Implements) || len(gc.Requires) != len(oc.Requires) {
			t.Errorf("component %q linkage arity changed", oc.Name)
		}
		if gc.Behaviors != oc.Behaviors {
			t.Errorf("component %q behaviors = %+v, want %+v", oc.Name, gc.Behaviors, oc.Behaviors)
		}
		if len(gc.Conditions) != len(oc.Conditions) {
			t.Errorf("component %q conditions lost", oc.Name)
		}
	}
	// Property expressions survive, including environment references.
	vms, _ := got.Component(CompViewMailServer)
	if !vms.Factors[PropTrustLevel].IsRef() || vms.Factors[PropTrustLevel].String() != "Node.TrustLevel" {
		t.Errorf("factored expression lost: %v", vms.Factors)
	}
	impl, _ := vms.ImplementsInterface(IfaceServer)
	if !impl.Props[PropConfidentiality].LitValue().Equal(property.Bool(true)) {
		t.Errorf("implements property lost: %v", impl.Props)
	}
	// Modification rules survive with the Figure 4 semantics.
	rule, ok := got.ModRules[PropConfidentiality]
	if !ok {
		t.Fatal("modification rule lost")
	}
	out, err := rule.Apply(property.Bool(true), property.Bool(false))
	if err != nil || !out.Equal(property.Bool(false)) {
		t.Errorf("decoded rule Apply(T,F) = %v, %v; want F", out, err)
	}
}

func TestXMLRoundTripTwiceIsStable(t *testing.T) {
	var first, second bytes.Buffer
	s := MailService()
	if err := s.EncodeXML(&first); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeXML(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.EncodeXML(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("encode(decode(encode(s))) must equal encode(s)")
	}
}

func TestXMLEncodesReadableSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := MailService().EncodeXML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`<Service name="mail">`,
		`<Property name="Confidentiality" type="Boolean">`,
		`<Property name="TrustLevel" type="Interval" lo="1" hi="5">`,
		`<View name="ViewMailServer" represents="MailServer" kind="data">`,
		`<Factor property="TrustLevel" value="Node.TrustLevel">`,
		`<Condition>User = Alice</Condition>`,
		`<PropertyModificationRule property="Confidentiality">`,
		`<Rule in="T" env="T" out="T">`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("encoded XML missing %q\n%s", want, out)
		}
	}
}

func TestDecodeXMLRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"truncated":      `<Service name="x"><Component`,
		"bad prop type":  `<Service name="x"><Property name="P" type="Complex"/></Service>`,
		"bad view kind":  `<Service name="x"><View name="V" represents="C" kind="weird"/></Service>`,
		"bad condition":  `<Service name="x"><Component name="C"><Condition>!!!</Condition></Component></Service>`,
		"empty rule out": `<Service name="x"><PropertyModificationRule property="P"><Rule in="T" env="T" out=""/></PropertyModificationRule></Service>`,
		"empty rule in":  `<Service name="x"><PropertyModificationRule property="P"><Rule in="" env="T" out="T"/></PropertyModificationRule></Service>`,
	}
	for name, doc := range cases {
		if _, err := DecodeXML(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestDecodeXMLDefaultOutcome(t *testing.T) {
	doc := `<Service name="x">
	  <Property name="TL" type="Interval" lo="1" hi="5"/>
	  <Interface name="I"><Property>TL</Property></Interface>
	  <Component name="C"><Implements name="I"><Set property="TL" value="3"/></Implements></Component>
	  <PropertyModificationRule property="TL"><Default out="MIN"/></PropertyModificationRule>
	</Service>`
	s, err := DecodeXML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := s.ModRules["TL"].Apply(property.Int(5), property.Int(2))
	if err != nil || !out.Equal(property.Int(2)) {
		t.Errorf("MIN default rule: got %v, %v", out, err)
	}
}

func TestDecodeXMLOutcomeKinds(t *testing.T) {
	doc := `<Service name="x">
	  <Property name="P" type="Interval" lo="0" hi="9"/>
	  <Interface name="I"><Property>P</Property></Interface>
	  <Component name="C"><Implements name="I"><Set property="P" value="1"/></Implements></Component>
	  <PropertyModificationRule property="P">
	    <Rule in="1" env="ANY" out="IN"/>
	    <Rule in="2" env="ANY" out="ENV"/>
	    <Rule in="3" env="ANY" out="MAX"/>
	    <Rule in="ANY" env="ANY" out="7"/>
	  </PropertyModificationRule>
	</Service>`
	s, err := DecodeXML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	rule := s.ModRules["P"]
	for _, c := range []struct{ in, env, want int64 }{
		{1, 5, 1}, // IN
		{2, 5, 5}, // ENV
		{3, 5, 5}, // MAX
		{4, 5, 7}, // literal
	} {
		got, err := rule.Apply(property.Int(c.in), property.Int(c.env))
		if err != nil || !got.Equal(property.Int(c.want)) {
			t.Errorf("Apply(%d,%d) = %v, %v; want %d", c.in, c.env, got, err, c.want)
		}
	}
}

// TestGoldenSpecFile: the committed testdata/mail.xml (also what
// `psfctl spec` emits) decodes to a spec byte-identical with the
// built-in one — the on-disk format is stable.
func TestGoldenSpecFile(t *testing.T) {
	f, err := os.Open("testdata/mail.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoded, err := DecodeXML(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Validate(); err != nil {
		t.Fatal(err)
	}
	var fromGolden, fromBuiltin bytes.Buffer
	if err := decoded.EncodeXML(&fromGolden); err != nil {
		t.Fatal(err)
	}
	if err := MailService().EncodeXML(&fromBuiltin); err != nil {
		t.Fatal(err)
	}
	if fromGolden.String() != fromBuiltin.String() {
		t.Error("testdata/mail.xml is stale; regenerate with `go run ./cmd/psfctl spec`")
	}
}
