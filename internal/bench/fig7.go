package bench

import (
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

// RunFig7Stats reproduces Figure 7: every scenario at each grid client
// count (1..MaxClients, or ClientCounts when set). Scenario runs are
// independent sim.Envs, so the grid fans out over a bounded worker
// pool (Config.Workers, default GOMAXPROCS); rows appear scenario-major
// in Scenarios() order and are byte-identical to a serial run. The
// recorder holds every send latency in the grid: each parallel worker
// records into its own per-scenario shard and the shards merge in row
// order afterwards, so the combined quantiles are identical at any
// worker count.
func RunFig7Stats(cfg Config) ([]Row, *Recorder) {
	scs := Scenarios()
	counts := cfg.clientCounts()
	rows := make([]Row, len(scs)*len(counts))
	recs := make([]*Recorder, len(rows))
	forEach(cfg.Workers, len(rows), func(i int) {
		rows[i], recs[i], _ = runScenario(cfg, scs[i/len(counts)], counts[i%len(counts)], 0)
	})
	merged := &Recorder{}
	for _, rec := range recs {
		merged.Merge(rec)
	}
	return rows, merged
}

// simEvents counts the simulator events dispatched by every scenario
// run in the process (concurrency-safe: parallel sweeps bump it from
// worker goroutines).
var simEvents metrics.Counter

// SimCounters reports the simulator events dispatched by all scenario
// runs so far.
func SimCounters() (events int64) { return simEvents.Load() }

// RunScenario simulates one scenario at one client count and returns
// its latency row. The simulation is deterministic: the same Config
// yields bit-identical rows at any sweep parallelism.
func RunScenario(cfg Config, sc Scenario, clients int) Row {
	row, _, _ := runScenario(cfg, sc, clients, 0)
	return row
}

// runScenario is the shared scenario engine. traceCap > 0 attaches a
// virtual-clock tracer (capacity traceCap) to the world. Span
// timestamps read env.Now, so repeated runs of the same Config produce
// byte-identical span trees.
func runScenario(cfg Config, sc Scenario, clients, traceCap int) (Row, *Recorder, *trace.Tracer) {
	env := sim.NewEnv()
	var tr *trace.Tracer
	if traceCap > 0 {
		tr = trace.NewTracer(traceCap, env.Now)
	}
	w := &scenarioWorld{cfg: cfg, sc: sc, env: env, tr: tr}
	w.build()
	rec := &Recorder{}
	w.active = clients
	for c := 0; c < clients; c++ {
		w.startClient(rec)
	}
	// Time-driven policies flush from a background flusher; it drains
	// once after the last client finishes and exits.
	if w.replica != nil {
		if _, timeDriven := w.replica.Policy().NextDeadline(0); timeDriven {
			w.startFlusher()
		}
	}
	env.Run()
	simEvents.Add(env.Stats().Events)
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
//
// Clients and the flusher are continuation chains over the simulator's
// callback primitives: every wait — a service time, a link transfer, a
// contended lock or server — is exactly one event, and everything
// between two waits runs synchronously inside one callback. A
// 10k-client scenario therefore needs no goroutine per client.
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
	// the send path.
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

// startClient launches one client running the paper's workload:
// SendsPerClient sends with a receive sweep after every ReceiveEvery
// sends, at the maximum rate the deployment permits.
func (w *scenarioWorld) startClient(rec *Recorder) {
	env, cfg := w.env, w.cfg
	sends, receives := 0, 0
	var beginSend func()
	next := func() {
		if sends < cfg.SendsPerClient {
			beginSend()
		} else {
			w.active--
		}
	}
	beginSend = func() {
		start := env.Now()
		root := w.span(trace.SpanContext{}, "client.send")
		env.After(cfg.ClientServiceMS, func() {
			var px *trace.Span
			finish := func() {
				px.End()
				root.End()
				rec.Add(env.Now() - start)
				sends++
				if cfg.ReceiveEvery > 0 && sends%cfg.ReceiveEvery == 0 {
					receives++
					w.receive(receives, next)
				} else {
					next()
				}
			}
			if !w.sc.Dynamic {
				w.send(root.Context(), finish)
				return
			}
			px = w.span(root.Context(), "proxy.send")
			env.After(cfg.ProxyOverheadMS, func() { w.send(px.Context(), finish) })
		})
	}
	env.At(env.Now(), beginSend)
}

// send models one message send through the scenario's deployment, from
// behind the client's proxy until the reply is back. Span names mirror
// the real transports' spans so one SpanBreakdown works over simulated
// and wall-clock traces alike.
func (w *scenarioWorld) send(parent trace.SpanContext, done func()) {
	env, cfg := w.env, w.cfg
	switch {
	case w.sc.Cached:
		// MailClient -> local ViewMailServer; the send is absorbed
		// locally, logging coherence records; the policy may force a
		// synchronous flush across the slow link while the view is
		// locked.
		w.view.LockFn(func() {
			vs := w.span(parent, "view.send")
			env.After(cfg.ViewServiceMS, func() {
				flush := false
				for r := 0; r < cfg.RecordsPerSend; r++ {
					if _, due := w.replica.Write("send", "user", nil, env.Now()); due {
						flush = true
					}
				}
				unlock := func() {
					vs.End()
					w.view.Unlock()
					done()
				}
				if flush {
					w.flushBatch(vs.Context(), len(w.replica.TakePending(env.Now())), unlock)
				} else {
					unlock()
				}
			})
		})
	case w.sc.Slow:
		// SS: the client talks straight to the distant MailServer,
		// "unaware of the slow link", through the encryptor tunnel.
		tun := w.span(parent, "tunnel.call")
		env.After(cfg.CryptoServiceMS, func() {
			tc := w.span(tun.Context(), "transport.call")
			w.slowUp.TransferFn(cfg.MessageBytes, func(float64) {
				env.After(cfg.CryptoServiceMS, func() {
					w.serve(w.span(tc.Context(), "mail.send"), w.slowDown, cfg.ReplyBytes, func() {
						tc.End()
						tun.End()
						done()
					})
				})
			})
		})
	default:
		// DF/SF: LAN client straight to the MailServer.
		tc := w.span(parent, "transport.call")
		w.lanUp.TransferFn(cfg.MessageBytes, func(float64) {
			w.serve(w.span(tc.Context(), "mail.send"), w.lanDown, cfg.ReplyBytes, func() {
				tc.End()
				done()
			})
		})
	}
}

// receive models one receive sweep. Receives are not part of the
// Figure 7 metric but contribute contention and time, as in the paper's
// workload.
func (w *scenarioWorld) receive(idx int, done func()) {
	env, cfg := w.env, w.cfg
	body := func() {
		switch {
		case w.sc.Cached:
			w.view.LockFn(func() {
				env.After(cfg.ViewServiceMS, func() {
					w.view.Unlock()
					if cfg.MissEvery == 0 || idx%cfg.MissEvery != 0 {
						done()
						return
					}
					// Cache miss (the view's RRF): fetch from the primary.
					env.After(2*cfg.CryptoServiceMS, func() {
						w.slowUp.TransferFn(cfg.ReplyBytes, func(float64) {
							w.serve(nil, w.slowDown, cfg.MessageBytes, done)
						})
					})
				})
			})
		case w.sc.Slow:
			env.After(cfg.CryptoServiceMS, func() {
				w.slowUp.TransferFn(cfg.ReplyBytes, func(float64) {
					w.serve(nil, w.slowDown, cfg.MessageBytes, func() { env.After(cfg.CryptoServiceMS, done) })
				})
			})
		default:
			w.lanUp.TransferFn(cfg.ReplyBytes, func(float64) {
				w.serve(nil, w.lanDown, cfg.MessageBytes, done)
			})
		}
	}
	env.After(cfg.ClientServiceMS, func() {
		if w.sc.Dynamic {
			env.After(cfg.ProxyOverheadMS, body)
		} else {
			body()
		}
	})
}

// serve models the primary MailServer's side of a call: queue for the
// server, hold it for its service time, end sp (nil when untraced), and
// carry replyBytes back over down before calling done.
func (w *scenarioWorld) serve(sp *trace.Span, down *sim.Link, replyBytes int, done func()) {
	w.server.AcquireFn(1, func() {
		w.env.After(w.cfg.ServerServiceMS, func() {
			w.server.Release(1)
			sp.End()
			down.TransferFn(replyBytes, func(float64) { done() })
		})
	})
}

// startFlusher launches the background flusher for time-driven
// policies: at each policy deadline it flushes, until the last client
// has finished.
func (w *scenarioWorld) startFlusher() {
	env := w.env
	var loop func()
	loop = func() {
		flush := func() {
			w.flush(func() {
				if w.active > 0 {
					loop()
				}
			})
		}
		if deadline, _ := w.replica.NextDeadline(); deadline > env.Now() {
			env.At(deadline, flush)
		} else {
			flush()
		}
	}
	env.At(env.Now(), loop)
}

// flush propagates the replica's pending updates across the slow link
// while holding the view lock.
func (w *scenarioWorld) flush(done func()) {
	w.view.LockFn(func() {
		unlock := func() {
			w.view.Unlock()
			done()
		}
		if n := len(w.replica.TakePending(w.env.Now())); n > 0 {
			w.flushBatch(trace.SpanContext{}, n, unlock)
		} else {
			unlock()
		}
	})
}

// flushBatch models the flush RPC chain — encryptor tunnel, slow-link
// transfer, primary processing, acknowledgement — under a
// "coherence.flush" span mirroring the real transport's span names.
func (w *scenarioWorld) flushBatch(parent trace.SpanContext, updates int, done func()) {
	fl := w.span(parent, "coherence.flush")
	tun := w.span(fl.Context(), "tunnel.call")
	w.env.After(2*w.cfg.CryptoServiceMS, func() {
		tun.End()
		tc := w.span(fl.Context(), "transport.call")
		w.slowUp.TransferFn(updates*w.cfg.RecordBytes, func(float64) {
			w.serve(w.span(tc.Context(), "mail.send"), w.slowDown, w.cfg.ReplyBytes, func() {
				tc.End()
				fl.End()
				done()
			})
		})
	})
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
