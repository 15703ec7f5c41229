package planner

import (
	"bytes"
	"os"
	"testing"

	"partsvc/internal/netmodel"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// FuzzSpecPlanVerify plans whatever specification the XML codec and
// Validate let through, for each of its interfaces from each case-study
// client site, registering every deployment so later requests anchor on
// earlier ones. Nothing may panic, and every deployment Plan returns
// must pass Verify with the same request: the planner and its
// independent check read one linkage graph.
//
// Run it with -fuzzminimizetime=1s: the seeds are multi-kilobyte XML
// documents, and the default minute spent minimising each interesting
// input byte by byte would eat a smoke run's whole budget.
func FuzzSpecPlanVerify(f *testing.F) {
	for _, svc := range []*spec.Service{spec.MailService(), portalService()} {
		var buf bytes.Buffer
		if err := svc.EncodeXML(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	mail, err := os.ReadFile("../spec/testdata/mail.xml")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mail)
	f.Fuzz(func(t *testing.T, xml []byte) {
		svc, err := spec.DecodeXML(bytes.NewReader(xml))
		if err != nil || svc.Validate() != nil {
			return
		}
		// The search is exponential in what the specification declares;
		// keep one execution in the milliseconds.
		if len(svc.Components) > 8 || len(svc.Interfaces) > 4 {
			return
		}
		pl := New(svc, topology.CaseStudy())
		pl.MaxChainLen = 4
		for _, iface := range svc.Interfaces {
			for _, site := range []netmodel.NodeID{topology.NYClient, topology.SDClient, topology.SeaClient} {
				req := Request{Interface: iface.Name, ClientNode: site, User: "Alice", RateRPS: 10}
				dep, err := pl.Plan(req)
				if err != nil {
					continue
				}
				if err := pl.Verify(dep, req); err != nil {
					t.Fatalf("Plan(%+v) = %s, which does not verify: %v", req, dep, err)
				}
				pl.AddExisting(dep.Placements...)
			}
		}
	})
}
