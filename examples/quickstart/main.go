// Quickstart: declare a tiny two-component service, plan a deployment
// for a client, and run a request through the Smock runtime — the
// smallest end-to-end use of the partitionable services framework.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the service and network, deploys the Greeter for a client
// and prints the deployment and the reply to w.
func run(w io.Writer) error {
	// 1. Declare the service: a Greeter component implementing
	// GreetInterface, requiring nothing.
	svc := &spec.Service{
		Name:       "greeter",
		Properties: []property.Type{property.BoolType("Confidentiality")},
		Interfaces: []spec.InterfaceDecl{{Name: "GreetInterface", Properties: []string{"Confidentiality"}}},
		Components: []spec.Component{{
			Name: "Greeter",
			Implements: []spec.InterfaceSpec{{
				Name:  "GreetInterface",
				Props: map[string]property.Expr{"Confidentiality": property.Lit(property.Bool(true))},
			}},
			Behaviors: spec.Behaviors{CapacityRPS: 1000, CPUMSPerRequest: 1, RequestBytes: 64, ResponseBytes: 64},
		}},
		ModRules: property.RuleTable{},
	}
	if err := svc.Validate(); err != nil {
		return err
	}

	// 2. Describe the network: two nodes on a fast link.
	net := netmodel.New()
	for _, id := range []netmodel.NodeID{"client-node", "server-node"} {
		if err := net.AddNode(netmodel.Node{ID: id, CPUCapacityRPS: 1000}); err != nil {
			return err
		}
	}
	if err := net.AddLink(netmodel.Link{
		A: "client-node", B: "server-node", LatencyMS: 1, BandwidthMbps: 100, Secure: true,
		Props: property.Set{"Confidentiality": property.Bool(true)},
	}); err != nil {
		return err
	}

	// 3. Register the component factory and a wrapper per node.
	tr := transport.NewInProc()
	reg := smock.NewRegistry()
	err := reg.Register("Greeter", func(ctx *smock.ActivationContext) (transport.Handler, error) {
		return transport.HandlerFunc(func(m *wire.Message) *wire.Message {
			return &wire.Message{
				Kind: wire.KindResponse, ID: m.ID,
				Body: []byte(fmt.Sprintf("hello, %s (served on %s)", m.Body, ctx.Node)),
			}
		}), nil
	})
	if err != nil {
		return err
	}
	engine := smock.NewEngine(tr)
	clock := transport.NewRealClock()
	for _, node := range net.Nodes() {
		engine.RegisterWrapper(smock.NewNodeWrapper(node.ID, tr, reg, clock))
	}

	// 4. Plan and deploy for a client request.
	pl := planner.New(svc, net)
	gs := smock.NewGenericServer(svc, pl, engine)
	addr, dep, err := gs.Access(planner.Request{
		Interface: "GreetInterface", ClientNode: "client-node", RateRPS: 10,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "deployment:", dep)

	// 5. Call the deployed component.
	ep, err := tr.Dial(addr)
	if err != nil {
		return err
	}
	defer ep.Close()
	resp, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "greet", Body: []byte("world")})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "response:", string(resp.Body))
	return nil
}
