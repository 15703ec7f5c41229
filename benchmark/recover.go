package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"partsvc/internal/adapt"
	"partsvc/internal/mail"
	"partsvc/internal/smock"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
)

// The recover workload's timers are the repository's own end-to-end
// settings (internal/adapt/e2e_test.go), fixed here so that only
// planning, cutover and rebinding can move recover_ms.
var (
	recoverCtl = adapt.Config{
		ProbeIntervalMS: 25, SuspicionThreshold: 2, ProbeTimeoutMS: 500,
		DebounceMS: 20, DrainMS: 40,
	}
	recoverRetry = adapt.RetryConfig{MaxAttempts: 12, BackoffMS: 25}
)

const (
	recoverWarmup    = 20
	recoverEvery     = 5 * time.Millisecond // open loop: one request due every 5 ms
	recoverWindow    = 600 * time.Millisecond
	recoverRequests  = int(recoverWindow / recoverEvery)
	recoverBodyBytes = 1 << 10
	recoverSens      = 2
	// A trial whose generator ran later than one inter-arrival period
	// (p99) skipped a beat and is invalid. ISSUE 12 proposed 2 ms; on the
	// reference host that sits inside the distribution's body (per-trial
	// p99 is 0.5-3 ms when both cores are busy replanning), so it threw
	// away most trials instead of the stalled ones.
	maxLatenessP99MS  = 5.0
	minValidTrials    = 3
	recoverSettleWait = 3 * time.Second
)

// trialResult is one kill-to-recovery trial.
type trialResult struct {
	setupS   float64
	accessMS float64
	// Per request, in due order: latency from its due time, and how late
	// the generator launched it.
	latencyMS  []float64
	latenessMS []float64
	failed     int
	recoverMS  float64 // worst completion − due time
	// Phase boundaries from the controller's events, ms after the kill.
	suspectMS, observeMS, replanMS, adaptedMS, teardownMS float64
	mem                                                   memDelta
	invalid                                               bool // generator lag over the limit
	lost                                                  int  // acknowledged sends missing at the primary
	failureLog                                            string
	spans                                                 []span
	names                                                 map[string]string
}

// ctlEvents timestamps the controller's callbacks on the harness clock.
type ctlEvents struct {
	mu    sync.Mutex
	first map[string]time.Time
	log   []string // every event, for the failure report
	rec   *recorder
}

func (c *ctlEvents) on(e adapt.Event) {
	key := e.Kind
	if e.Kind == "stage" {
		key = "stage:" + e.Detail
	}
	now := time.Now()
	c.mu.Lock()
	if _, seen := c.first[key]; !seen {
		c.first[key] = now
	}
	if len(c.log) < 200 {
		c.log = append(c.log, e.String())
	}
	c.mu.Unlock()
	if c.rec != nil {
		c.rec.add(kindEvent, "adapt."+key, e.Session, now, now)
	}
}

func (c *ctlEvents) at(key string) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.first[key]
	return t, ok
}

// sleepUntil sleeps to within a timer's coarseness of t (about 1 ms on
// the reference host) and yields the rest of the way, so the open loop
// launches requests on their due times without holding a core.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func hasBody(msgs []*mail.Message, body []byte) bool {
	for _, m := range msgs {
		if bytes.Equal(m.Body, body) {
			return true
		}
	}
	return false
}

// runRecoverTrial deploys San Diego then Carol's Seattle session on a
// fresh TCP world, starts the adaptation controller, kills sd-2 (the
// node hosting the view Seattle chains through) and keeps sending open
// loop across the fault.
func runRecoverTrial(seed int64, trial int, rec *recorder) (*trialResult, error) {
	rng := newRand(seed, fmt.Sprintf("recover/t%d", trial))
	body := func() []byte {
		b := make([]byte, recoverBodyBytes)
		rng.Read(b)
		return b
	}
	warmBody, carried := body(), body()
	bodies := make([][]byte, recoverRequests)
	for i := range bodies {
		bodies[i] = body()
	}

	res := &trialResult{}
	setupStart := time.Now()
	w, err := newWorld([]string{"Alice", "Bob", "Carol"}, nil, rec)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res.names = w.names

	sdHead, _, err := w.access(sdRequest(), figure6SD)
	if err != nil {
		return nil, err
	}
	sdEP, err := w.tr.Dial(sdHead)
	if err != nil {
		return nil, err
	}
	defer sdEP.Close()
	if _, err := mail.NewClient("Alice", w.keys, mail.NewRemote(sdEP)).Send("Bob", "warm up", warmBody, recoverSens); err != nil {
		return nil, fmt.Errorf("San Diego warm-up send: %w", err)
	}

	t0 := time.Now()
	head, dep, err := w.access(seattleRequest(), figure6Seattle)
	if err != nil {
		return nil, err
	}
	res.accessMS = float64(time.Since(t0)) / 1e6

	const service = "mail-head-carol"
	if err := w.lookup.Register(smock.Entry{Service: service, ServerAddr: head}); err != nil {
		return nil, err
	}
	session := adapt.NewSession("carol", service, seattleRequest(), dep, head)
	reb := adapt.NewRebindEndpoint(w.tr, adapt.LookupResolver(w.lookup, service), recoverRetry)
	defer reb.Close()
	session.Bind(reb)

	events := &ctlEvents{first: map[string]time.Time{}, rec: rec}
	ctrl := adapt.New(recoverCtl, w.mon, &adapt.EngineExecutor{
		Server: w.gs, Engine: w.engine, Lookup: w.lookup, Transport: w.tr, Spec: spec.MailService(),
	}, adapt.NewRealScheduler())
	// Liveness probes go straight to TCP: they are the failure detector's
	// own traffic, not part of any request.
	ctrl.SetProber(adapt.NewTransportProber(w.tcp), w.engine.ControlAddrs)
	ctrl.OnEvent(events.on)
	ctrl.Track(session)
	ctrl.Start()
	defer ctrl.Stop()

	carol := mail.NewViewClient("Carol", 2, w.keys.SubRing(2), mail.NewRemote(reb))
	// A primary-side message that reaches Carol's sea-2 view only by
	// coherence fan-out: after the cutover it can still be there only if
	// the view's state was carried across.
	if _, err := w.primary.Send("Alice", "Carol", "seed", carried, recoverSens); err != nil {
		return nil, err
	}
	if !waitUntil(recoverSettleWait, func() bool {
		msgs, err := carol.Receive()
		return err == nil && hasBody(msgs, carried)
	}) {
		return nil, fmt.Errorf("the fan-out message never reached the sea-2 view")
	}
	for i := 0; i < recoverWarmup; i++ {
		if _, err := carol.Send("Alice", "warm", warmBody, recoverSens); err != nil {
			return nil, fmt.Errorf("warm-up send %d: %w", i, err)
		}
	}
	res.setupS = time.Since(setupStart).Seconds()
	if rec != nil {
		rec.take()
	}

	// The fault, and the open loop across it.
	res.latencyMS = make([]float64, recoverRequests)
	res.latenessMS = make([]float64, recoverRequests)
	errs := make([]error, recoverRequests)
	memBefore := readMem()
	var wg sync.WaitGroup
	kill := time.Now()
	w.wrappers[topology.SDClient].Close()
	for i := 0; i < recoverRequests; i++ {
		due := kill.Add(time.Duration(i) * recoverEvery)
		sleepUntil(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			launched := time.Now()
			_, err := carol.Send("Alice", "r", bodies[i], recoverSens)
			done := time.Now()
			res.latenessMS[i] = float64(launched.Sub(due)) / 1e6
			res.latencyMS[i] = float64(done.Sub(due)) / 1e6
			errs[i] = err
			if rec != nil {
				rec.add(kindClient, "send", "send", due, done)
			}
		}(i, due)
	}
	wg.Wait()
	res.mem = memSince(memBefore)
	var firstErr error
	for i, err := range errs {
		if err != nil {
			res.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("request %d: %w", i, err)
			}
		}
		if res.latencyMS[i] > res.recoverMS {
			res.recoverMS = res.latencyMS[i]
		}
	}
	res.invalid = quantile(sortedCopy(res.latenessMS), 0.99) > maxLatenessP99MS

	// Requests that fail across the fault are the system's failed
	// operations, not a wrong output: they are counted (the JSON's
	// "failed"), the trial's timings are left out, and the controller's
	// events are kept for the report.
	if res.failed > 0 {
		events.mu.Lock()
		res.failureLog = fmt.Sprintf("trial %d: %d of %d requests failed across the fault, first %v; controller events:\n%s",
			trial, res.failed, recoverRequests, firstErr, strings.Join(events.log, "\n"))
		events.mu.Unlock()
		return res, nil
	}

	// Let the drain timer tear the replaced instances down, then read
	// the phase boundaries.
	if !waitUntil(recoverSettleWait, func() bool { _, ok := events.at("stage:teardown"); return ok }) {
		return res, fmt.Errorf("the controller never tore the old instances down")
	}
	since := func(key string) float64 {
		t, ok := events.at(key)
		if !ok {
			return 0
		}
		return float64(t.Sub(kill)) / 1e6
	}
	res.suspectMS, res.observeMS, res.replanMS = since("suspect"), since("observe"), since("replan")
	res.adaptedMS, res.teardownMS = since("adapted"), since("stage:teardown")
	if rec != nil {
		res.spans = rec.take()
	}

	// Output checks.
	if _, ok := events.at("adapted"); !ok {
		return res, fmt.Errorf("the session never adapted")
	}
	newDep := session.Deployment().String()
	if strings.Contains(newDep, "@sd-2") {
		return res, fmt.Errorf("adapted deployment still uses the dead node: %s", newDep)
	}
	// Every acknowledged send should be at the primary exactly once. It
	// is not a failing check: the rebind layer is at-least-once by
	// design, and concurrent write-through flushes of one view can reach
	// the primary out of order, where the earlier batch is dropped as a
	// duplicate. The shortfall is reported so a fix shows up here.
	want := 1 + recoverWarmup + recoverRequests // San Diego warm-up, warm-ups, open loop
	held := func() int { return w.primary.Store().InboxCount("Alice") + w.primary.Store().InboxCount("Bob") }
	waitUntil(200*time.Millisecond, func() bool { return held() >= want })
	if got := held(); got < want {
		res.lost = want - got
	}
	msgs, err := carol.Receive()
	if err != nil {
		return res, fmt.Errorf("post-adaptation receive: %w", err)
	}
	if !hasBody(msgs, carried) {
		return res, fmt.Errorf("the migrated sea-2 view lost the pre-kill fan-out message")
	}
	return res, nil
}
