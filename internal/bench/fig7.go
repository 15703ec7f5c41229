package bench

import (
	"fmt"

	"partsvc/internal/coherence"
	"partsvc/internal/metrics"
	"partsvc/internal/sim"
	"partsvc/internal/trace"
)

// Row is one Figure 7 data point: the average client-perceived send
// latency for a scenario at a client count.
type Row struct {
	Scenario string
	Clients  int
	AvgMS    float64
	P95MS    float64
	MaxMS    float64
	Sends    int
}

// RunFig7 reproduces Figure 7: every scenario at each grid client
// count (1..MaxClients, or ClientCounts when set). Scenario runs are
// independent sim.Envs, so the grid fans out over a bounded worker
// pool (Config.Workers, default GOMAXPROCS); rows appear scenario-major
// in Scenarios() order and are byte-identical to a serial run.
func RunFig7(cfg Config) []Row {
	rows, _ := RunFig7Stats(cfg)
	return rows
}

// RunFig7Stats is RunFig7 plus a merged recorder holding every send
// latency in the grid: each parallel worker records into its own
// per-scenario shard and the shards merge in row order afterwards, so
// the combined quantiles are identical at any worker count.
func RunFig7Stats(cfg Config) ([]Row, *metrics.Recorder) {
	scs := Scenarios()
	counts := cfg.clientCounts()
	rows := make([]Row, len(scs)*len(counts))
	recs := make([]*metrics.Recorder, len(rows))
	forEach(cfg.Workers, len(rows), func(i int) {
		rows[i], recs[i], _ = runScenario(cfg, scs[i/len(counts)], counts[i%len(counts)], 0)
	})
	merged := &metrics.Recorder{}
	for _, rec := range recs {
		merged.Merge(rec)
	}
	return rows, merged
}

// simStats aggregates scheduler counters across every scenario run in
// the process (concurrency-safe: parallel sweeps bump them from worker
// goroutines).
var simStats struct {
	events, callbacks, switches metrics.Counter
}

// SimCounters reports the simulator scheduler counters accumulated by
// all scenario runs so far: total events dispatched, fast-path
// callback events, and slow-path process switches.
func SimCounters() (events, callbackEvents, procSwitches int64) {
	return simStats.events.Load(), simStats.callbacks.Load(), simStats.switches.Load()
}

// RunScenario simulates one scenario at one client count and returns
// its latency row. The simulation is deterministic: the same Config
// yields bit-identical rows under either engine, either event queue,
// and any sweep parallelism.
func RunScenario(cfg Config, sc Scenario, clients int) Row {
	row, _, _ := runScenario(cfg, sc, clients, 0)
	return row
}

// runScenario is the shared scenario engine. traceCap > 0 attaches a
// virtual-clock tracer (capacity traceCap) to the world and forces the
// process engine — the callback engine produces identical rows but
// emits no spans. Span timestamps read env.Now, so repeated runs of
// the same Config produce byte-identical span trees.
func runScenario(cfg Config, sc Scenario, clients, traceCap int) (Row, *metrics.Recorder, *trace.Tracer) {
	env := sim.NewEnvWith(sim.Options{
		Seed:      scenarioSeed(cfg.Seed, sc.Name, clients),
		HeapQueue: cfg.HeapQueue,
	})
	defer env.Stop()
	var tr *trace.Tracer
	if traceCap > 0 {
		tr = trace.NewTracer(traceCap, env.Now)
		cfg.Procs = true
	}
	w := &scenarioWorld{cfg: cfg, sc: sc, env: env, tr: tr}
	w.build()
	rec := &metrics.Recorder{}
	w.active = clients
	// Time-driven policies flush from a background flusher (the Smock
	// runtime's periodic FlushIfDue loop); it drains once after the last
	// client finishes and exits.
	timeDriven := false
	if w.replica != nil {
		_, timeDriven = w.replica.Policy().NextDeadline(0)
	}
	if cfg.Procs {
		for c := 0; c < clients; c++ {
			env.Go(fmt.Sprintf("client-%d", c), func(p *sim.Proc) {
				w.runClient(p, rec)
				w.active--
			})
		}
		if timeDriven {
			env.Go("flusher", func(p *sim.Proc) {
				for {
					deadline, _ := w.replica.NextDeadline()
					if deadline > p.Now() {
						p.SleepUntil(deadline)
					}
					w.flush(p)
					if w.active == 0 {
						return
					}
				}
			})
		}
	} else {
		for c := 0; c < clients; c++ {
			w.startClient(rec)
		}
		if timeDriven {
			w.startFlusher()
		}
	}
	env.Run()
	st := env.Stats()
	simStats.events.Add(st.Events)
	simStats.callbacks.Add(st.CallbackEvents)
	simStats.switches.Add(st.ProcSwitches)
	return Row{
		Scenario: sc.Name,
		Clients:  clients,
		AvgMS:    rec.Mean(),
		P95MS:    rec.Percentile(95),
		MaxMS:    rec.Max(),
		Sends:    rec.Count(),
	}, rec, tr
}

// scenarioWorld holds the simulated deployment for one scenario: links,
// component service resources, and the view's coherence replica.
type scenarioWorld struct {
	cfg Config
	sc  Scenario
	env *sim.Env

	// Duplex inter-site path (request and response directions).
	slowUp, slowDown *sim.Link
	// Duplex LAN path between the client node and the server node in
	// fast scenarios.
	lanUp, lanDown *sim.Link

	// server serializes the primary MailServer's request processing.
	server *sim.Resource
	// view serializes the local ViewMailServer; the coherence flush
	// holds it, stalling concurrent senders (the directory protocol
	// "limits the number of unpropagated messages at each replica").
	view    *sim.Mutex
	replica *coherence.Replica
	// active counts clients still running (lets the background flusher
	// terminate).
	active int
	// tr, when non-nil, records virtual-clock spans for every stage of
	// the process engine's send path (the callback engine stays
	// untraced).
	tr *trace.Tracer
}

// span starts a virtual-clock span when the world is traced (nil
// otherwise; nil spans are no-ops everywhere, so the untraced path
// costs one pointer compare per stage).
func (w *scenarioWorld) span(parent trace.SpanContext, name string) *trace.Span {
	if w.tr == nil {
		return nil
	}
	return w.tr.StartSpan(parent, name)
}

// flush propagates the replica's pending updates across the slow link
// while holding the view lock.
func (w *scenarioWorld) flush(p *sim.Proc) {
	w.view.Lock(p)
	batch := w.replica.TakePending(p.Now())
	if len(batch) > 0 {
		w.flushBatch(p, trace.SpanContext{}, len(batch))
	}
	w.view.Unlock()
}

// flushBatch models the flush RPC chain — encryptor tunnel, slow-link
// transfer, primary processing, acknowledgement — under a
// "coherence.flush" span mirroring the real transport's span names.
func (w *scenarioWorld) flushBatch(p *sim.Proc, parent trace.SpanContext, updates int) {
	fl := w.span(parent, "coherence.flush")
	tun := w.span(fl.Context(), "tunnel.call")
	p.Sleep(2 * w.cfg.CryptoServiceMS)
	tun.End()
	tc := w.span(fl.Context(), "transport.call")
	w.slowUp.Transfer(p, updates*w.cfg.RecordBytes)
	ms := w.span(tc.Context(), "mail.send")
	w.server.Acquire(p, 1)
	p.Sleep(w.cfg.ServerServiceMS)
	w.server.Release(1)
	ms.End()
	w.slowDown.Transfer(p, w.cfg.ReplyBytes)
	tc.End()
	fl.End()
}

func (w *scenarioWorld) build() {
	cfg := w.cfg
	w.slowUp = sim.NewLink(w.env, cfg.SlowLatencyMS, cfg.SlowMbps)
	w.slowDown = sim.NewLink(w.env, cfg.SlowLatencyMS, cfg.SlowMbps)
	w.lanUp = sim.NewLink(w.env, cfg.LanLatencyMS, cfg.LanMbps)
	w.lanDown = sim.NewLink(w.env, cfg.LanLatencyMS, cfg.LanMbps)
	w.server = sim.NewResource(w.env, 1)
	if w.sc.Cached {
		w.view = sim.NewMutex(w.env)
		policy := w.sc.Policy
		if policy == nil {
			policy = coherence.None{}
		}
		w.replica = coherence.NewReplica("view", policy, nil)
	}
}

// runClient performs the paper's workload: SendsPerClient sends with a
// receive sweep after every ReceiveEvery sends, at the maximum rate the
// deployment permits.
func (w *scenarioWorld) runClient(p *sim.Proc, rec *metrics.Recorder) {
	receives := 0
	for i := 1; i <= w.cfg.SendsPerClient; i++ {
		start := p.Now()
		root := w.span(trace.SpanContext{}, "client.send")
		w.send(p, root.Context())
		root.End()
		rec.Add(p.Now() - start)
		if w.cfg.ReceiveEvery > 0 && i%w.cfg.ReceiveEvery == 0 {
			receives++
			w.receive(p, receives)
		}
	}
}

// send models one message send through the scenario's deployment.
// Span names mirror the real transports' spans so one SpanBreakdown
// works over simulated and wall-clock traces alike.
func (w *scenarioWorld) send(p *sim.Proc, parent trace.SpanContext) {
	cfg := w.cfg
	p.Sleep(cfg.ClientServiceMS)
	if w.sc.Dynamic {
		px := w.span(parent, "proxy.send")
		defer px.End()
		parent = px.Context()
		p.Sleep(cfg.ProxyOverheadMS)
	}
	switch {
	case w.sc.Cached:
		// MailClient -> local ViewMailServer; the send is absorbed
		// locally, logging coherence records; the policy may force a
		// synchronous flush across the slow link while the view is
		// locked.
		w.view.Lock(p)
		vs := w.span(parent, "view.send")
		p.Sleep(cfg.ViewServiceMS)
		flush := false
		for r := 0; r < cfg.RecordsPerSend; r++ {
			if _, due := w.replica.Write("send", "user", nil, p.Now()); due {
				flush = true
			}
		}
		if flush {
			batch := w.replica.TakePending(p.Now())
			w.flushBatch(p, vs.Context(), len(batch))
		}
		vs.End()
		w.view.Unlock()
	case w.sc.Slow:
		// SS: the client talks straight to the distant MailServer,
		// "unaware of the slow link", through the encryptor tunnel.
		tun := w.span(parent, "tunnel.call")
		p.Sleep(cfg.CryptoServiceMS)
		tc := w.span(tun.Context(), "transport.call")
		w.slowUp.Transfer(p, cfg.MessageBytes)
		p.Sleep(cfg.CryptoServiceMS)
		ms := w.span(tc.Context(), "mail.send")
		w.server.Acquire(p, 1)
		p.Sleep(cfg.ServerServiceMS)
		w.server.Release(1)
		ms.End()
		w.slowDown.Transfer(p, cfg.ReplyBytes)
		tc.End()
		tun.End()
	default:
		// DF/SF: LAN client straight to the MailServer.
		tc := w.span(parent, "transport.call")
		w.lanUp.Transfer(p, cfg.MessageBytes)
		ms := w.span(tc.Context(), "mail.send")
		w.server.Acquire(p, 1)
		p.Sleep(cfg.ServerServiceMS)
		w.server.Release(1)
		ms.End()
		w.lanDown.Transfer(p, cfg.ReplyBytes)
		tc.End()
	}
}

// receive models one receive sweep. Receives are not part of the
// Figure 7 metric but contribute contention and time, as in the paper's
// workload.
func (w *scenarioWorld) receive(p *sim.Proc, idx int) {
	cfg := w.cfg
	p.Sleep(cfg.ClientServiceMS)
	if w.sc.Dynamic {
		p.Sleep(cfg.ProxyOverheadMS)
	}
	switch {
	case w.sc.Cached:
		w.view.Lock(p)
		p.Sleep(cfg.ViewServiceMS)
		w.view.Unlock()
		if cfg.MissEvery > 0 && idx%cfg.MissEvery == 0 {
			// Cache miss (the view's RRF): fetch from the primary.
			p.Sleep(2 * cfg.CryptoServiceMS)
			w.slowUp.Transfer(p, cfg.ReplyBytes)
			w.server.Acquire(p, 1)
			p.Sleep(cfg.ServerServiceMS)
			w.server.Release(1)
			w.slowDown.Transfer(p, cfg.MessageBytes)
		}
	case w.sc.Slow:
		p.Sleep(cfg.CryptoServiceMS)
		w.slowUp.Transfer(p, cfg.ReplyBytes)
		w.server.Acquire(p, 1)
		p.Sleep(cfg.ServerServiceMS)
		w.server.Release(1)
		w.slowDown.Transfer(p, cfg.MessageBytes)
		p.Sleep(cfg.CryptoServiceMS)
	default:
		w.lanUp.Transfer(p, cfg.ReplyBytes)
		w.server.Acquire(p, 1)
		p.Sleep(cfg.ServerServiceMS)
		w.server.Release(1)
		w.lanDown.Transfer(p, cfg.MessageBytes)
	}
}

// Fig7Table renders rows as the experiment table printed by
// cmd/mailbench.
func Fig7Table(rows []Row) string {
	t := metrics.NewTable("scenario", "group", "clients", "avg_send_ms", "p95_ms", "max_ms", "sends")
	for _, r := range rows {
		t.AddRow(r.Scenario, Group(r.Scenario), r.Clients, r.AvgMS, r.P95MS, r.MaxMS, r.Sends)
	}
	return t.String()
}
