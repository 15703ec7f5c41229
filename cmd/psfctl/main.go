// Command psfctl is the partitionable-services control tool: it
// validates declarative service specifications, enumerates valid
// linkage graphs (Figure 3), and plans deployments onto a network
// (Figure 6).
//
// Usage:
//
//	psfctl spec                       # print the mail spec as XML
//	psfctl validate [-f spec.xml]     # validate a specification
//	psfctl chains [-f spec.xml] [-i ClientInterface]
//	psfctl plan -case-study           # reproduce the Figure 6 plans
//	psfctl plan -node sd-2 -user Alice [-rate 50] [-objective latency]
//	psfctl rpc [-callers 64] [-d 2s]  # loopback data-plane throughput probe
//	psfctl stats [-http :8080]        # unified metrics registry across subsystems
//	psfctl trace [-sim]               # end-to-end trace of one mail send
//	psfctl adapt [-fault node-crash]  # live adaptation demo over the SSE event stream
//	psfctl adapt -attach URL          # tail a running server's /v1/events
//	psfctl adapt -fleet               # fleet scenario, streaming replan waves
//	psfctl serve [-addr :8080]        # operational API over the deployed case study
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"partsvc/internal/metrics"
	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "spec":
		err = spec.MailService().EncodeXML(os.Stdout)
		fmt.Println()
	case "validate":
		err = runValidate(os.Args[2:])
	case "chains":
		err = runChains(os.Args[2:])
	case "plan":
		err = runPlan(os.Args[2:])
	case "rpc":
		err = runRPC(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	case "adapt":
		err = runAdapt(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "psfctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: psfctl <spec|validate|chains|plan|rpc|stats|trace|adapt|serve> [flags]")
}

// loadSpec reads a spec from -f, defaulting to the built-in mail spec.
func loadSpec(path string) (*spec.Service, error) {
	if path == "" {
		return spec.MailService(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spec.DecodeXML(f)
}

func runValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	path := fs.String("f", "", "specification XML file (default: built-in mail spec)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	svc, err := loadSpec(*path)
	if err != nil {
		return err
	}
	if err := svc.Validate(); err != nil {
		return fmt.Errorf("specification invalid:\n%w", err)
	}
	fmt.Printf("service %q: %d properties, %d interfaces, %d components — OK\n",
		svc.Name, len(svc.Properties), len(svc.Interfaces), len(svc.Components))
	return nil
}

func runChains(args []string) error {
	fs := flag.NewFlagSet("chains", flag.ExitOnError)
	path := fs.String("f", "", "specification XML file (default: built-in mail spec)")
	iface := fs.String("i", spec.IfaceClient, "requested interface")
	if err := fs.Parse(args); err != nil {
		return err
	}
	svc, err := loadSpec(*path)
	if err != nil {
		return err
	}
	if err := svc.Validate(); err != nil {
		return err
	}
	var chains, branching []planner.Graph
	for _, g := range planner.New(svc, topology.CaseStudy()).EnumerateGraphs(*iface) {
		if g.Branches() {
			branching = append(branching, g)
		} else {
			chains = append(chains, g)
		}
	}
	fmt.Printf("valid component chains for %s (%d):\n", *iface, len(chains))
	for _, g := range chains {
		fmt.Println("  " + strings.Join(g.Components(), " -> "))
	}
	if len(branching) > 0 {
		fmt.Printf("valid branching component graphs for %s (%d):\n", *iface, len(branching))
		for _, g := range branching {
			fmt.Println("  " + g.Names())
		}
	}
	return nil
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	caseStudy := fs.Bool("case-study", false, "run the three Figure 6 requests in sequence")
	node := fs.String("node", "sd-2", "client node")
	user := fs.String("user", "Alice", "requesting user")
	rate := fs.Float64("rate", 50, "request rate (req/s)")
	objective := fs.String("objective", "min-latency",
		"latency | cost | headroom (canonical min-latency | min-cost | max-capacity also accepted)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc := spec.MailService()
	net := topology.CaseStudy()
	pl := planner.New(svc, net)
	ms, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		return err
	}
	pl.AddExisting(ms)
	reg := metrics.NewRegistry()
	pl.RegisterMetrics(reg, "planner")
	pl.RegisterSolverMetrics(reg, "solver")

	obj, err := planner.ParseObjective(*objective)
	if err != nil {
		return err
	}

	plan := func(req planner.Request) error {
		dep, err := pl.Plan(req)
		if err != nil {
			return err
		}
		fmt.Printf("request: %s from %s as %s (%.0f req/s, %s)\n",
			req.Interface, req.ClientNode, req.User, req.RateRPS, req.Objective)
		fmt.Printf("  deployment: %s\n", dep)
		fmt.Printf("  expected latency %.2f ms, capacity %.0f req/s, %d new component(s)\n",
			dep.ExpectedLatencyMS, dep.CapacityRPS, dep.NewComponents)
		fmt.Print(reg.Render())
		pl.AddExisting(dep.Placements...)
		return nil
	}

	if *caseStudy {
		for _, req := range []planner.Request{
			{Interface: spec.IfaceClient, ClientNode: topology.NYClient, User: "Alice", RateRPS: *rate, Objective: obj},
			{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: *rate, Objective: obj},
			{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: *rate, Objective: obj},
		} {
			if err := plan(req); err != nil {
				return err
			}
		}
		return nil
	}
	return plan(planner.Request{
		Interface: spec.IfaceClient, ClientNode: netmodel.NodeID(*node),
		User: *user, RateRPS: *rate, Objective: obj,
	})
}
