package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partsvc/internal/api"
	"partsvc/internal/bench"
	"partsvc/internal/coherence"
	"partsvc/internal/mail"
	"partsvc/internal/metrics"
	"partsvc/internal/planner"
	"partsvc/internal/seccrypto"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/trace"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// registerPoolSection exposes the process-wide wire buffer pool in reg.
// The pool is shared by every transport in the process, which is why it
// is a section of its own rather than part of any transport's counters.
func registerPoolSection(reg *metrics.Registry) {
	reg.RegisterSection("wire_pool", func() []metrics.KV {
		p := wire.SnapshotPool()
		return []metrics.KV{
			metrics.KVf("hits", "%d", p.Hits),
			metrics.KVf("misses", "%d", p.Misses),
			metrics.KVf("hit_rate", "%.1f%%", 100*p.HitRate()),
		}
	})
}

// registerFleetSection runs flapFleet and exposes what the loop's
// fleet.* counters and wave histograms (which land in reg as a side
// effect and render alongside) do not show: the sessions, their shard
// occupancy and the live instances they share.
func registerFleetSection(reg *metrics.Registry) {
	mgr, err := flapFleet(nil)
	if err != nil {
		panic(err) // static case-study construction; an error is a bug
	}
	reg.RegisterSection("fleet", func() []metrics.KV {
		return []metrics.KV{
			metrics.KVf("sessions", "%d", len(mgr.Sessions())),
			metrics.KVf("sessions_per_shard", "%v", mgr.SessionsPerShard()),
			metrics.KVf("instances_shared", "%d", mgr.Instances()),
		}
	})
}

// mailStack is the loopback deployment the stats and trace subcommands
// drive: MailClient -> ViewMailServer -> Encryptor tunnel -> TCP ->
// Decryptor -> primary MailServer — the paper's cached deployment
// (Figure 5) collapsed onto 127.0.0.1.
type mailStack struct {
	tr      *transport.TCP
	ln      transport.Listener
	ep      transport.Endpoint
	primary *mail.Server
	view    *mail.View
	client  *mail.Client
}

func newMailStack(policy coherence.Policy) (*mailStack, error) {
	keys := seccrypto.NewKeyRing()
	clock := transport.NewRealClock()
	primary := mail.NewServer(keys, clock)
	for _, u := range []string{"Alice", "Bob"} {
		if err := primary.CreateAccount(u); err != nil {
			return nil, err
		}
	}
	key, err := mail.NewChannelKey()
	if err != nil {
		return nil, err
	}
	tr := transport.NewTCP()
	ln, err := tr.Serve("127.0.0.1:0", mail.NewDecryptorHandler(mail.NewHandler(primary), key))
	if err != nil {
		return nil, err
	}
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		return nil, err
	}
	view, err := mail.NewView(mail.ViewConfig{
		ID: "psfctl-view", Trust: 4, Keys: keys.SubRing(4),
		Upstream: mail.NewRemote(mail.NewEncryptorEndpoint(ep, key)),
		Policy:   policy, Clock: clock,
	}, 1<<32)
	if err != nil {
		ep.Close()
		ln.Close()
		return nil, err
	}
	return &mailStack{
		tr: tr, ln: ln, ep: ep, primary: primary, view: view,
		client: mail.NewClient("Alice", keys, view),
	}, nil
}

func (s *mailStack) Close() {
	s.ep.Close()
	s.ln.Close()
}

// runStats exercises every instrumented subsystem once — a Figure 6
// plan, a traced TCP loopback mail exchange, and a Figure 7 scenario —
// and renders the unified registry: planner, transport, sim, wire-pool,
// and per-method RPC latency sections in one table. With -http it then
// serves the registry as JSON at /metrics and the span ring at /trace.
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	httpAddr := fs.String("http", "", "serve /metrics (JSON) and /trace on this address after printing")
	sends := fs.Int("sends", 32, "mail sends on the TCP loopback stack")
	if err := fs.Parse(args); err != nil {
		return err
	}
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	reg := metrics.DefaultRegistry

	// Planner: the Figure 6 San Diego request against the NY primary.
	pl := planner.New(spec.MailService(), topology.CaseStudy())
	ms, err := pl.PrimaryPlacement(spec.CompMailServer, topology.NYServer)
	if err != nil {
		return err
	}
	pl.AddExisting(ms)
	pl.RegisterMetrics(reg, "planner")
	pl.RegisterSolverMetrics(reg, "solver")
	if _, err := pl.Plan(planner.Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50,
	}); err != nil {
		return err
	}

	// Transport + RPC histograms: traced sends through the TCP stack.
	stack, err := newMailStack(coherence.WriteThrough{})
	if err != nil {
		return err
	}
	defer stack.Close()
	reg.RegisterSection("transport", func() []metrics.KV { return stack.tr.Stats().KVs() })
	reg.RegisterSection("coherence", func() []metrics.KV {
		st := stack.primary.Directory().Stats()
		return []metrics.KV{
			metrics.KVf("publishes", "%d", st.Publishes),
			metrics.KVf("updates_published", "%d", st.UpdatesPublished),
			metrics.KVf("replicas_updated", "%d", st.ReplicasUpdated),
		}
	})
	body := make([]byte, 1024)
	for i := 0; i < *sends; i++ {
		if _, err := stack.client.Send("Bob", "stats probe", body, 2); err != nil {
			return err
		}
	}
	if _, err := stack.client.Receive(); err != nil {
		return err
	}

	// Simulator: one small Figure 7 scenario bumps the sim counters.
	bench.RegisterSimMetrics(reg)
	cfg := bench.DefaultConfig()
	cfg.SendsPerClient = 20
	bench.RunScenario(cfg, bench.Scenarios()[1], 4)

	registerFleetSection(reg)
	registerPoolSection(reg)
	fmt.Print(reg.Render())

	if *httpAddr != "" {
		// The observability mux comes from internal/api: Prometheus text
		// at /metrics, the old JSON form at /v1/metrics.json, the span
		// ring at /v1/trace — and the process drains cleanly on SIGINT/
		// SIGTERM instead of dying mid-scrape.
		srv := api.New(api.Config{Addr: *httpAddr, Registry: reg}, api.Control{})
		if err := srv.Start(); err != nil {
			return err
		}
		fmt.Printf("serving /metrics (Prometheus), /v1/metrics.json, /v1/trace, /v1/events on %s\n", srv.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		<-ctx.Done()
		fmt.Println("\nshutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(sctx)
	}
	return nil
}

// runTrace prints the span tree of one end-to-end mail send. By
// default it drives the TCP loopback stack on the wall clock; with
// -sim it runs a Figure 7 scenario on the virtual clock and adds the
// per-stage latency breakdown (byte-identical across repeated runs).
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	simMode := fs.Bool("sim", false, "trace a simulated Figure 7 scenario instead of the TCP stack")
	scenario := fs.String("scenario", "DS500", "scenario name for -sim")
	clients := fs.Int("clients", 2, "client count for -sim")
	sendsPer := fs.Int("sends", 5, "sends per client for -sim")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *simMode {
		cfg := bench.DefaultConfig()
		cfg.SendsPerClient = *sendsPer
		var sc bench.Scenario
		found := false
		for _, s := range bench.Scenarios() {
			if s.Name == *scenario {
				sc, found = s, true
			}
		}
		if !found {
			return fmt.Errorf("unknown scenario %q", *scenario)
		}
		row, spans := bench.RunScenarioTraced(cfg, sc, *clients)
		fmt.Printf("scenario %s, %d clients: avg %.2f ms over %d sends (%d spans, virtual clock)\n",
			row.Scenario, row.Clients, row.AvgMS, row.Sends, len(spans))
		fmt.Print(bench.SpanBreakdown(spans))
		fmt.Print(trace.Tree(spans))
		return nil
	}

	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	trace.Default.Reset()
	stack, err := newMailStack(coherence.WriteThrough{})
	if err != nil {
		return err
	}
	defer stack.Close()
	ctx, root := trace.Start(context.Background(), "client.send")
	if _, err := stack.client.SendCtx(ctx, "Bob", "traced send", []byte("hello"), 2); err != nil {
		return err
	}
	root.End()
	spans := trace.Default.Spans()
	fmt.Printf("one traced mail send over TCP loopback (%d spans):\n", len(spans))
	fmt.Print(trace.Tree(spans))
	return nil
}
