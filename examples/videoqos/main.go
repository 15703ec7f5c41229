// Videoqos demonstrates that property modification rules generalize
// beyond security (Section 3.3: "our approach is generally applicable
// to properties other than just security, e.g. QoS properties such as
// delivered video frame rate"). A video source offers 30 fps; links cap
// the deliverable frame rate (Out = MIN(In, Env)); a Transcoder
// component regenerates a usable rate at reduced fidelity. The planner
// inserts the transcoder exactly when the path cannot sustain the
// client's requirement.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"partsvc/internal/netmodel"
	"partsvc/internal/planner"
	"partsvc/internal/property"
	"partsvc/internal/spec"
)

// videoService declares a VideoPlayer that needs >= 24 fps, a
// VideoSource that offers 30 fps, and a Transcoder that consumes any
// stream (>= 1 fps) and re-emits 24 fps at reduced fidelity.
func videoService() *spec.Service {
	lit := func(v property.Value) property.Expr { return property.Lit(v) }
	return &spec.Service{
		Name: "video",
		Properties: []property.Type{
			property.IntervalType("FrameRate", 1, 60),
			property.BoolType("HasContent"),
		},
		Interfaces: []spec.InterfaceDecl{
			{Name: "PlayerInterface", Properties: []string{"FrameRate"}},
			{Name: "StreamInterface", Properties: []string{"FrameRate"}},
		},
		Components: []spec.Component{
			{
				Name: "VideoPlayer",
				Implements: []spec.InterfaceSpec{{
					Name:  "PlayerInterface",
					Props: map[string]property.Expr{"FrameRate": lit(property.Int(24))},
				}},
				Requires: []spec.InterfaceSpec{{
					Name:  "StreamInterface",
					Props: map[string]property.Expr{"FrameRate": lit(property.Int(24))},
				}},
				Behaviors: spec.Behaviors{CPUMSPerRequest: 1, RequestBytes: 512, ResponseBytes: 65536},
			},
			{
				Name: "VideoSource",
				Implements: []spec.InterfaceSpec{{
					Name:  "StreamInterface",
					Props: map[string]property.Expr{"FrameRate": lit(property.Int(30))},
				}},
				// Only the studio holds the content library.
				Conditions: []property.Condition{
					property.CondEq("Node.HasContent", property.Bool(true)),
				},
				Behaviors: spec.Behaviors{CapacityRPS: 100, CPUMSPerRequest: 2, RequestBytes: 512, ResponseBytes: 65536},
			},
			{
				Name: "Transcoder",
				Implements: []spec.InterfaceSpec{{
					Name:  "StreamInterface",
					Props: map[string]property.Expr{"FrameRate": lit(property.Int(24))},
				}},
				Requires: []spec.InterfaceSpec{{
					Name:  "StreamInterface",
					Props: map[string]property.Expr{"FrameRate": lit(property.Int(1))},
				}},
				Behaviors: spec.Behaviors{CapacityRPS: 50, CPUMSPerRequest: 5, RequestBytes: 512, ResponseBytes: 32768},
			},
		},
		ModRules: property.RuleTable{
			// The deliverable frame rate is capped by the slowest link
			// environment the stream crosses — the Figure 4 mechanism
			// applied to a QoS property.
			"FrameRate": property.CapRule("FrameRate"),
		},
	}
}

// network builds: viewer -- goodLink(fps 60) -- relay -- badLink(fps 10) -- studio.
func network() (*netmodel.Network, error) {
	net := netmodel.New()
	for _, id := range []netmodel.NodeID{"viewer", "relay", "studio"} {
		props := property.Set{"HasContent": property.Bool(id == "studio")}
		if err := net.AddNode(netmodel.Node{ID: id, CPUCapacityRPS: 1000, Props: props}); err != nil {
			return nil, err
		}
	}
	// Link environments carry a FrameRate property: what the link can
	// sustain for this service (translated from bandwidth by the
	// service's credential translation).
	if err := net.AddLink(netmodel.Link{
		A: "viewer", B: "relay", LatencyMS: 5, BandwidthMbps: 100, Secure: true,
		Props: property.Set{"FrameRate": property.Int(60)},
	}); err != nil {
		return nil, err
	}
	if err := net.AddLink(netmodel.Link{
		A: "relay", B: "studio", LatencyMS: 40, BandwidthMbps: 8, Secure: true,
		Props: property.Set{"FrameRate": property.Int(10)},
	}); err != nil {
		return nil, err
	}
	return net, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plans the player for a viewer at the studio and one across the
// WAN and prints both deployments and the planner's rejections to w.
func run(w io.Writer) error {
	svc := videoService()
	if err := svc.Validate(); err != nil {
		return err
	}
	net, err := network()
	if err != nil {
		return err
	}
	pl := planner.New(svc, net)
	src, err := pl.PrimaryPlacement("VideoSource", "studio")
	if err != nil {
		return err
	}
	pl.AddExisting(src)

	// A viewer next to the studio needs no transcoder...
	nearPl := planner.New(svc, net)
	nearPl.AddExisting(src)
	near, err := nearPl.Plan(planner.Request{Interface: "PlayerInterface", ClientNode: "studio", RateRPS: 5})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "viewer at the studio:   ", near)

	// ...but across the 10 fps link the raw stream violates the
	// player's 24 fps requirement, so the planner inserts a Transcoder
	// downstream of the bottleneck.
	far, err := pl.Plan(planner.Request{Interface: "PlayerInterface", ClientNode: "viewer", RateRPS: 5})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "viewer across the WAN:  ", far)
	fmt.Fprintf(w, "  expected latency %.2f ms, %d new component(s)\n", far.ExpectedLatencyMS, far.NewComponents)
	for _, p := range far.Placements {
		if p.Component == "Transcoder" {
			fmt.Fprintf(w, "  transcoder at %s: offers %s\n", p.Node, p.Offers)
		}
	}
	// Note the two transcoders: the frame-rate cap rule forbids serving
	// 24 fps from behind the 10 fps link, so one transcoder must sit on
	// the viewer's side to regenerate the rate — and the planner adds a
	// second at the studio because its reduced-fidelity output shrinks
	// the bytes crossing the 8 Mb/s bottleneck (filters placed before
	// slow links, exactly the adaptation the framework exists for).
	st := pl.Stats()
	fmt.Fprintf(w, "  planner rejected %d property-invalid mappings (frame-rate rule at work)\n", st.RejectedProps)
	return nil
}
