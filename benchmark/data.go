package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"partsvc/internal/coherence"
	"partsvc/internal/mail"
	"partsvc/internal/transport"
)

// dataSpec fixes one data-plane workload. Sizes never change with the
// run length; only the number of rounds does.
type dataSpec struct {
	name         string
	policy       coherence.Policy // nil = write-through views
	sensitivity  int
	bodyBytes    int
	recipients   int
	receiveEvery int // 0 = sends only
	opsPerRound  int // across all callers
	verify       int // recipients whose inbox is fetched and compared after each round
	// Rounds in a run: roundsPerSecond x -seconds, at most maxRounds,
	// sized so that a run lasts about -seconds on the reference host.
	roundsPerSecond float64
	maxRounds       int
}

// sendThrough: 10 KiB bodies at sensitivity 5. The sd-2 view's trust is
// 4, so it may neither store nor seal them: every send crosses all five
// hops, is sealed by the AES-GCM tunnel and is stored at the primary.
// Wire, transport, tunnel and relay do nearly all the work. A round is
// 2 000 sends because everything sent stays live in the primary's store:
// over 8 000 sends the collector's marking makes the last thousand 50 %
// slower than the first, and where that knee falls is luck.
var sendThrough = dataSpec{
	name: "send-through", sensitivity: 5, bodyBytes: 10 << 10,
	recipients: 64, opsPerRound: 2000, verify: 16,
	roundsPerSecond: 1.4, maxRounds: 28, // a round is ≈0.7 s
}

// mailboxMix: the paper's DS500 scenario. 1 KiB bodies at sensitivity 2
// are absorbed by the view (sealed and stored at sd-2, flushed upstream
// 500 at a time), and every 20th operation is a recipient reading its
// inbox. View, store, seccrypto and coherence dominate; the tunnel
// carries one batch per 500 sends.
var mailboxMix = dataSpec{
	name: "mailbox-mix", policy: coherence.CountBound{Bound: 500}, sensitivity: 2, bodyBytes: 1 << 10,
	recipients: 256, receiveEvery: 20, opsPerRound: 24000, verify: 16,
	roundsPerSecond: 0.2, maxRounds: 4, // a round is ≈4.5 s
}

const (
	warmupSends = 50 // per caller, to a recipient of their own, before the timed window
	warmupUser  = "warmup"
)

// roundResult is what one round of a data workload measured.
type roundResult struct {
	setupS    float64
	wallS     float64
	sendUS    []float64
	recvUS    []float64
	recvMsgs  []float64 // inbox size seen by each timed receive
	verifyUS  []float64 // full-inbox receives made by the output check
	attempted int
	failed    int
	sends     int // acknowledged sends in the timed window

	mem   memDelta
	stats statsDelta

	spans []span
	names map[string]string
}

// memDelta is the process's allocation activity over a timed window.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcPauseNS  uint64
	heapPeak   uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcPauseNS:  after.PauseTotalNs - before.PauseTotalNs,
		heapPeak:   after.HeapInuse, // the store only grows during a round, so the end is the peak
	}
}

// statsDelta is the TCP transport's counters over a timed window. The
// histograms are per world, and each round has a fresh world.
type statsDelta struct {
	bytesSent, framesSent, shed uint64
	writeBatchP50               float64
	queueWaitMaxMS              float64 // the histogram's quantiles are bucket values; its maximum is exact
}

func statsSince(tcp *transport.TCP, before transport.StatsSnapshot) statsDelta {
	after := tcp.Stats()
	return statsDelta{
		bytesSent:      after.BytesSent - before.BytesSent,
		framesSent:     after.FramesSent - before.FramesSent,
		shed:           after.Shed - before.Shed,
		writeBatchP50:  after.WriteBatchP50,
		queueWaitMaxMS: after.QueueWaitMaxMS,
	}
}

// runDataRound runs one round of a data workload on a fresh world and
// checks its outputs. rec non-nil makes it a traced round.
func runDataRound(ds dataSpec, seed int64, round, callers int, rec *recorder) (*roundResult, error) {
	sp := planSpec{
		Ops: ds.opsPerRound / callers, BodyBytes: ds.bodyBytes,
		Recipients: ds.recipients, ReceiveEvery: ds.receiveEvery,
	}
	plans := make([]*plan, callers)
	users := []string{warmupUser}
	for c := range plans {
		plans[c] = makePlan(seed, ds.name, round, c, sp)
		users = append(users, callerName(c))
	}
	for i := 0; i < ds.recipients; i++ {
		users = append(users, recipientName(i))
	}

	// Set-up: world, Figure-6 San Diego deployment, one connection per
	// caller, warm-up sends.
	setupStart := time.Now()
	w, err := newWorld(users, ds.policy, rec)
	if err != nil {
		return nil, err
	}
	defer w.close()
	head, _, err := w.access(sdRequest(), figure6SD)
	if err != nil {
		return nil, err
	}
	remotes := make([]*mail.Remote, callers)
	senders := make([]*mail.Client, callers)
	for c := range senders {
		ep, err := w.tr.Dial(head)
		if err != nil {
			return nil, err
		}
		defer ep.Close()
		remotes[c] = mail.NewRemote(ep)
		senders[c] = mail.NewClient(callerName(c), w.keys, remotes[c])
		for i := 0; i < warmupSends; i++ {
			if _, err := senders[c].Send(warmupUser, "warm", plans[c].Bodies[i%bodyPool], ds.sensitivity); err != nil {
				return nil, fmt.Errorf("warm-up send: %w", err)
			}
		}
	}
	res := &roundResult{setupS: time.Since(setupStart).Seconds(), names: w.names}
	if rec != nil {
		rec.take() // set-up spans are not part of any request
	}

	// Timed window: closed loop, every caller walks its script.
	type callerOut struct {
		sendUS, recvUS, recvMsgs []float64
		failed                   int
		firstErr                 error
	}
	outs := make([]callerOut, callers)
	runtime.GC()
	memBefore := readMem()
	statsBefore := w.tcp.Stats()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p, out := plans[c], &outs[c]
			out.sendUS = make([]float64, 0, len(p.Ops))
			readers := map[int]*mail.Client{}
			buf := make([]byte, 0, ds.bodyBytes)
			for seq, o := range p.Ops {
				var err error
				switch o.Kind {
				case opSend:
					buf = p.stamped(buf, seq)
					t0 := time.Now()
					_, err = senders[c].Send(recipientName(o.To), "s", buf, ds.sensitivity)
					t1 := time.Now()
					out.sendUS = append(out.sendUS, float64(t1.Sub(t0))/1e3)
					if rec != nil {
						rec.add(kindClient, "send", "send", t0, t1)
					}
				case opReceive:
					rd := readers[o.To]
					if rd == nil {
						rd = mail.NewClient(recipientName(o.To), w.keys, remotes[c])
						readers[o.To] = rd
					}
					t0 := time.Now()
					var msgs []*mail.Message
					msgs, err = rd.Receive()
					t1 := time.Now()
					out.recvUS = append(out.recvUS, float64(t1.Sub(t0))/1e3)
					out.recvMsgs = append(out.recvMsgs, float64(len(msgs)))
					if rec != nil {
						rec.add(kindClient, "receive", "receive", t0, t1)
					}
				}
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res.wallS = time.Since(start).Seconds()
	res.mem = memSince(memBefore)
	res.stats = statsSince(w.tcp, statsBefore)
	if rec != nil {
		res.spans = rec.take()
	}
	var firstErr error
	for c := range outs {
		res.sendUS = append(res.sendUS, outs[c].sendUS...)
		res.recvUS = append(res.recvUS, outs[c].recvUS...)
		res.recvMsgs = append(res.recvMsgs, outs[c].recvMsgs...)
		res.failed += outs[c].failed
		if firstErr == nil {
			firstErr = outs[c].firstErr
		}
		res.attempted += len(plans[c].Ops)
	}
	res.sends = len(res.sendUS)
	if res.failed > 0 {
		return res, fmt.Errorf("%d of %d operations failed, first: %v", res.failed, res.attempted, firstErr)
	}
	if err := checkDataRound(ds, w, plans, senders[0], remotes[0], seed, round, res); err != nil {
		return res, fmt.Errorf("output check: %w", err)
	}
	return res, nil
}

// checkDataRound is the round's output check: the primary holds exactly
// the acknowledged sends (inbox and sent folders), and a seeded sample
// of recipients, reading through the deployed chain, decrypt exactly
// the bytes that were sent to them.
func checkDataRound(ds dataSpec, w *world, plans []*plan, filler *mail.Client, remote *mail.Remote, seed int64, round int, res *roundResult) error {
	callers := len(plans)
	wantInbox := callers * warmupSends // the warm-up recipient's
	wantTo := make([]int, ds.recipients)
	for _, p := range plans {
		for _, o := range p.Ops {
			if o.Kind == opSend {
				wantTo[o.To]++
				wantInbox++
			}
		}
	}
	primaryInbox := func() int {
		n := w.primary.Store().InboxCount(warmupUser)
		for i := 0; i < ds.recipients; i++ {
			n += w.primary.Store().InboxCount(recipientName(i))
		}
		return n
	}
	// Under a count-bound policy the view still holds the sends since
	// its last flush. Untimed filler sends push it over the bound; the
	// flush that follows carries everything acknowledged so far.
	fillers := 0
	if cb, ok := ds.policy.(coherence.CountBound); ok {
		for primaryInbox() != wantInbox+fillers {
			if fillers >= cb.Bound {
				return fmt.Errorf("primary holds %d messages after %d filler sends, want %d", primaryInbox(), fillers, wantInbox+fillers)
			}
			if _, err := filler.Send(warmupUser, "fill", plans[0].Bodies[0], ds.sensitivity); err != nil {
				return fmt.Errorf("filler send: %w", err)
			}
			fillers++
		}
	}
	if got := primaryInbox(); got != wantInbox+fillers {
		return fmt.Errorf("primary inboxes hold %d messages, %d sends were acknowledged", got, wantInbox+fillers)
	}
	for c, p := range plans {
		want := warmupSends
		if c == 0 {
			want += fillers
		}
		for _, o := range p.Ops {
			if o.Kind == opSend {
				want++
			}
		}
		sent, err := w.primary.Store().Folder(callerName(c), mail.FolderSent)
		if err != nil {
			return err
		}
		if len(sent) != want {
			return fmt.Errorf("%s's sent folder holds %d messages, %d sends were acknowledged", callerName(c), len(sent), want)
		}
	}

	rng := newRand(seed, fmt.Sprintf("%s/r%d/verify", ds.name, round))
	var buf []byte
	for _, r := range rng.Perm(ds.recipients)[:ds.verify] {
		reader := mail.NewClient(recipientName(r), w.keys, remote)
		t0 := time.Now()
		msgs, err := reader.Receive()
		res.verifyUS = append(res.verifyUS, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("verification receive for %s: %w", recipientName(r), err)
		}
		if len(msgs) != wantTo[r] {
			return fmt.Errorf("%s received %d messages through the chain, %d were sent", recipientName(r), len(msgs), wantTo[r])
		}
		seen := map[[2]int]bool{}
		for _, m := range msgs {
			c, seq, ok := readStamp(m.Body)
			if !ok || c >= callers || seq >= len(plans[c].Ops) || plans[c].Ops[seq].Kind != opSend || plans[c].Ops[seq].To != r {
				return fmt.Errorf("%s received a body that names no send addressed to it", recipientName(r))
			}
			if seen[[2]int{c, seq}] {
				return fmt.Errorf("%s received send %d of caller %d twice", recipientName(r), seq, c)
			}
			seen[[2]int{c, seq}] = true
			buf = plans[c].stamped(buf, seq)
			if !bytes.Equal(m.Body, buf) {
				return fmt.Errorf("%s: body of send %d of caller %d does not decrypt to the sent bytes", recipientName(r), seq, c)
			}
		}
	}
	return nil
}
