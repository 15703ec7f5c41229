package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/api"
	"partsvc/internal/casestudy"
	"partsvc/internal/fleet"
	"partsvc/internal/mail"
	"partsvc/internal/metrics"
	"partsvc/internal/netmon"
	"partsvc/internal/planner"
	"partsvc/internal/sim"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/transport"
)

// runAdapt deploys the case study in-process, starts the adaptation
// controller, injects one fault, and streams every controller event
// while client traffic keeps flowing through the rebinding endpoint.
// The live view is a thin SSE client of the operational API: the demo
// starts its own api.Server and reads back /v1/events over HTTP — the
// same stream curl or a dashboard would see. With -attach it skips the
// demo and tails a running server's stream instead; with -fleet it
// runs the sharded fleet scenario and streams the manager's replan
// wave lifecycle.
func runAdapt(args []string) error {
	fs := flag.NewFlagSet("adapt", flag.ExitOnError)
	fault := fs.String("fault", "node-crash",
		"fault to inject: node-crash (kill sd-2), link-degrade, link-down (SD~Seattle)")
	sends := fs.Int("sends", 8, "client sends to push through the adaptation")
	timeout := fs.Duration("timeout", 15*time.Second, "abort if adaptation has not completed")
	attach := fs.String("attach", "", "tail a running operational API's /v1/events instead of running the demo (base URL)")
	token := fs.String("token", "", "bearer token for -attach")
	filter := fs.String("filter", "", "event filter for -attach (query form: session=carol&kind=replan,adapted)")
	fleetView := fs.Bool("fleet", false, "run the sharded fleet scenario and stream replan waves")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *attach != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Printf("streaming %s/v1/events (ctrl-c to stop)\n", strings.TrimSuffix(*attach, "/"))
		return streamEvents(ctx, *attach, *token, *filter, printEvent)
	}
	if *fleetView {
		return runAdaptFleet()
	}

	w, err := casestudy.New(transport.NewInProc(), "Alice", "Carol")
	if err != nil {
		return err
	}
	// Warm up San Diego so Seattle anchors onto the sd-2 view — the
	// case study's incremental state, and the fault's blast radius.
	warm := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
	if _, _, err := w.GS.Access(warm); err != nil {
		return err
	}
	req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SeaClient, User: "Carol", RateRPS: 50}
	headAddr, dep, err := w.GS.Access(req)
	if err != nil {
		return err
	}
	const service = "mail-head-carol"
	if err := w.Lookup.Register(smock.Entry{Service: service, ServerAddr: headAddr}); err != nil {
		return err
	}
	fmt.Printf("deployed carol: %s\n", dep)

	session := adapt.NewSession("carol", service, req, dep, headAddr)
	reb := adapt.NewRebindEndpoint(w.Tr, adapt.LookupResolver(w.Lookup, service),
		adapt.RetryConfig{MaxAttempts: 12, BackoffMS: 25})
	defer reb.Close()
	session.Bind(reb)

	ctrl := w.Loop(25)

	adapted := make(chan struct{}, 1)
	stopView, err := liveView(api.Config{Addr: "127.0.0.1:0"}, w.Control(ctrl), func(e api.Event) {
		if e.Kind == "adapted" {
			select {
			case adapted <- struct{}{}:
			default:
			}
		}
	})
	if err != nil {
		return err
	}

	ctrl.Track(session)
	ctrl.Start()
	defer ctrl.Stop()

	carol := mail.NewViewClient("Carol", 2, w.Keys.SubRing(2), mail.NewRemote(reb))
	if _, err := carol.Send("Alice", "baseline", []byte("pre-fault"), 2); err != nil {
		return fmt.Errorf("baseline send: %v", err)
	}

	switch *fault {
	case "node-crash":
		fmt.Printf("-- killing node %s --\n", topology.SDClient)
		w.Wrappers[topology.SDClient].Close()
	case "link-degrade":
		fmt.Printf("-- degrading link %s~%s to 1500ms --\n", topology.SDGateway, topology.SeaGW)
		if err := w.Mon.ReportLink(topology.SDGateway, topology.SeaGW, 1500, 1, nil); err != nil {
			return err
		}
	case "link-down":
		fmt.Printf("-- severing link %s~%s --\n", topology.SDGateway, topology.SeaGW)
		if err := w.Mon.ReportLink(topology.SDGateway, topology.SeaGW, 1e9, 1e-6, nil); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -fault %q", *fault)
	}

	deadline := time.After(*timeout)
	done := false
	for i := 1; i <= *sends || !done; i++ {
		select {
		case <-adapted:
			done = true
		case <-deadline:
			return fmt.Errorf("adaptation did not complete within %v", *timeout)
		default:
		}
		if i <= *sends {
			subject := fmt.Sprintf("during-%d", i)
			if _, err := carol.Send("Alice", subject, []byte(subject), 2); err != nil {
				return fmt.Errorf("client-visible error during adaptation (send %d): %v", i, err)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}

	if err := stopView(); err != nil {
		return err
	}
	fmt.Printf("adapted: %s\n", session.Deployment())
	fmt.Printf("head %s -> %s; %d sends, zero client-visible errors; primary inbox %d\n",
		headAddr, session.HeadAddr(), *sends+1, w.Primary.Store().InboxCount("Alice"))
	return nil
}

// liveView serves a loop's events on an operational API of its own and
// prints them as this process reads them back over SSE — the same
// stream curl, a dashboard or psfctl adapt -attach sees. onEvent, when
// non-nil, also sees every event. stop shuts the server down, which
// flushes the stream (buffered events drain before the bye), and
// returns once the reader has printed everything.
func liveView(cfg api.Config, ctl api.Control, onEvent func(api.Event)) (stop func() error, err error) {
	srv := api.New(cfg, ctl)
	srv.Attach(ctl.Controller, nil)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	fmt.Printf("events live at http://%s/v1/events\n", srv.Addr())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		streamEvents(ctx, "http://"+srv.Addr(), "", "", func(e api.Event) { //nolint:errcheck // demo stream
			printEvent(e)
			if onEvent != nil {
				onEvent(e)
			}
		})
	}()
	return func() error {
		defer cancel()
		shctx, shcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shcancel()
		err := srv.Shutdown(shctx)
		<-done
		return err
	}, nil
}

// runAdaptFleet runs flapFleet with the loop's wave lifecycle
// (wave-open/wave-close, per-session adapt outcomes, governor
// deferrals, flap suppression) streamed as a live view — replan waves,
// not just counters.
func runAdaptFleet() error {
	var stopView func() error
	mgr, err := flapFleet(func(mgr *fleet.Manager) (err error) {
		// The sim publishes faster than real time; a deep subscriber
		// buffer keeps the live view lossless.
		stopView, err = liveView(api.Config{Addr: "127.0.0.1:0", SubscriberBuffer: 8192},
			api.Control{Controller: mgr.Controller}, nil)
		return err
	})
	if err != nil {
		return err
	}
	if err := stopView(); err != nil {
		return err
	}

	reg := metrics.DefaultRegistry
	fmt.Printf("fleet run complete: %d sessions, %d waves, %d cutovers rate-limited, %d flaps suppressed\n",
		len(mgr.Sessions()),
		reg.Counter("fleet.waves").Load(),
		reg.Counter("fleet.cutovers_rate_limited").Load(),
		reg.Counter("fleet.flaps_suppressed").Load())
	return nil
}

// flapFleet runs the sharded fleet through a relay kill/recovery/flap
// cycle on the case-study topology (virtual clock): eight San Diego and
// Seattle sessions, a 1/s cutover budget and a 60 s anti-flap window.
// The first recovery rewires Seattle's chains under the token bucket;
// the second outage forces repairs; the second recovery inside the
// hysteresis window is suppressed as flap. watch, when non-nil, sees
// the fleet before it bootstraps.
func flapFleet(watch func(*fleet.Manager) error) (*fleet.Manager, error) {
	env := sim.NewEnv()
	defer env.Stop()
	net := topology.CaseStudy()
	mon := netmon.New(net)
	mgr := fleet.New(fleet.Config{
		Shards: 4, Workers: 2, DebounceMS: 20,
		CutoverRatePerSec: 1, CutoverBurst: 1, HysteresisMS: 60000,
	}, spec.MailService(), net, mon, adapt.NewSimScheduler(env))
	if watch != nil {
		if err := watch(mgr); err != nil {
			return nil, err
		}
	}
	if _, err := mgr.AddPrimary(spec.CompMailServer, topology.NYServer); err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		req := planner.Request{Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50}
		if i%2 == 1 {
			req.ClientNode, req.User = topology.SeaClient, "Carol"
		}
		mgr.AddSession(fmt.Sprintf("fleet-s%d", i), req)
	}
	mgr.Bootstrap()
	mgr.Start()
	env.At(100, func() { _ = mon.ReportNodeDown(topology.SDGateway) })
	env.At(10000, func() { _ = mon.ReportNodeUp(topology.SDGateway) })
	env.At(20000, func() { _ = mon.ReportNodeDown(topology.SDGateway) })
	env.At(30000, func() { _ = mon.ReportNodeUp(topology.SDGateway) })
	env.RunUntil(60000)
	mgr.Stop()
	return mgr, nil
}
