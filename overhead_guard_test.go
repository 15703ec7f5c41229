package partsvc

import (
	"context"
	"os"
	"runtime"
	"testing"

	"partsvc/internal/api"
	"partsvc/internal/coherence"
	"partsvc/internal/mail"
	"partsvc/internal/planner"
	"partsvc/internal/seccrypto"
	"partsvc/internal/spec"
	"partsvc/internal/topology"
	"partsvc/internal/trace"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// benchmarkLoopbackRPC measures one echo RPC over TCP loopback — the
// denominator every overhead guard compares its instrumentation cost
// against.
func benchmarkLoopbackRPC(t *testing.T) testing.BenchmarkResult {
	t.Helper()
	h := transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID, Body: m.Body}
	})
	tr := transport.NewTCP()
	ln, err := tr.Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	body := make([]byte, 256)
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ep.Call(&wire.Message{Kind: wire.KindRequest, Method: "echo", Body: body}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTracingOverheadGuard is the CI regression gate for the
// tracing-disabled fast path: the per-RPC cost of the disabled trace
// gates (one atomic load plus a context lookup each) must stay under
// 2% of one BenchmarkRPCThroughput-style TCP loopback call. It runs
// benchmarks in-process, so it is env-gated to keep `go test ./...`
// fast and quiet on laptops.
func TestTracingOverheadGuard(t *testing.T) {
	if os.Getenv("RUN_OVERHEAD_GUARD") == "" {
		t.Skip("set RUN_OVERHEAD_GUARD=1 to run the tracing overhead guard")
	}
	trace.SetEnabled(false)

	// Cost of one disabled gate: what every instrumented layer pays per
	// request when tracing is off.
	ctx := context.Background()
	gate := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s := trace.Start(ctx, "guard")
			s.End()
		}
	})

	// Cost of one real RPC on the path the gates sit on.
	rpc := benchmarkLoopbackRPC(t)

	// Gates on one traced request path: client call, server serve, mail
	// handler, coherence flush, tunnel seal/open, plus slack.
	const gatesPerOp = 8
	gateNs := float64(gate.NsPerOp())
	rpcNs := float64(rpc.NsPerOp())
	if rpcNs == 0 {
		t.Fatal("rpc benchmark measured 0 ns/op")
	}
	overhead := gateNs * gatesPerOp / rpcNs
	t.Logf("disabled gate: %.1f ns/op × %d gates = %.0f ns vs RPC %.0f ns/op → %.3f%% overhead",
		gateNs, gatesPerOp, gateNs*gatesPerOp, rpcNs, 100*overhead)
	if allocs := gate.AllocsPerOp(); allocs != 0 {
		t.Errorf("disabled gate allocates %d objects/op, want 0", allocs)
	}
	if overhead > 0.02 {
		t.Errorf("disabled tracing adds %.2f%% to an RPC, budget is 2%%", 100*overhead)
	}
}

// TestEventBusOverheadGuard is the CI regression gate for the event
// bus's quiet path: publishing a control-plane event with no SSE
// subscriber attached (the common case — the adaptation loop always
// publishes, observers only sometimes watch) must cost under 1% of a
// TCP loopback RPC. Env-gated like the tracing guard.
func TestEventBusOverheadGuard(t *testing.T) {
	if os.Getenv("RUN_OVERHEAD_GUARD") == "" {
		t.Skip("set RUN_OVERHEAD_GUARD=1 to run the event bus overhead guard")
	}

	bus := api.NewBus(0)
	pub := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bus.Publish(api.Event{Source: "adapt", Kind: "stage", Session: "carol", Detail: "flip"})
		}
	})

	rpc := benchmarkLoopbackRPC(t)
	pubNs := float64(pub.NsPerOp())
	rpcNs := float64(rpc.NsPerOp())
	if rpcNs == 0 {
		t.Fatal("rpc benchmark measured 0 ns/op")
	}
	// One event per RPC is already generous: the controller publishes
	// per adaptation step, not per data-plane request.
	overhead := pubNs / rpcNs
	t.Logf("no-subscriber publish: %.1f ns/op vs RPC %.0f ns/op → %.3f%% overhead",
		pubNs, rpcNs, 100*overhead)
	if overhead > 0.01 {
		t.Errorf("bus publish with no subscriber adds %.2f%% to an RPC, budget is 1%%", 100*overhead)
	}
}

// TestPlanAllocGuard bounds what one plan allocates. Allocation counts
// repeat exactly from run to run, so unlike the timing guards above
// this one is not env-gated: the Figure-6 San Diego request, planned
// against the registered primary on a warm route cache, stays under
// 3 000 allocations (18 371 when every linkage graph rebuilt its
// candidates, its routes and a Deployment per leaf), and the planner's
// inner-loop route lookup — RouteCache.PathAt by dense index — allocates
// nothing.
func TestPlanAllocGuard(t *testing.T) {
	pl := newCaseStudyPlanner(t)
	req := planner.Request{
		Interface: spec.IfaceClient, ClientNode: topology.SDClient, User: "Alice", RateRPS: 50,
	}
	if _, err := pl.Plan(req); err != nil {
		t.Fatal(err)
	}
	plan := testing.AllocsPerRun(20, func() {
		if _, err := pl.Plan(req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Plan(sd): %.0f allocations", plan)
	if plan > 3000 {
		t.Errorf("Plan(sd) allocates %.0f objects, budget is 3000", plan)
	}

	rc := pl.Net.Routes()
	from, ok1 := rc.Index(topology.SDClient)
	to, ok2 := rc.Index(topology.NYServer)
	if !ok1 || !ok2 {
		t.Fatal("case-study nodes missing from the route cache")
	}
	if _, _, ok := rc.PathAt(from, to); !ok {
		t.Fatal("no route sd-2 -> ny-1")
	}
	lookup := testing.AllocsPerRun(1000, func() {
		if _, _, ok := rc.PathAt(from, to); !ok {
			t.Fatal("no route sd-2 -> ny-1")
		}
	})
	if lookup != 0 {
		t.Errorf("a warm RouteCache.PathAt allocates %.0f objects, want 0", lookup)
	}
}

// countingPrimary is a primary that counts the receives it answered and
// the messages its replies carried.
type countingPrimary struct {
	*mail.Server
	receives, returned int
}

func (p *countingPrimary) ReceiveCtx(ctx context.Context, user string, above int) ([]*mail.Message, error) {
	msgs, err := p.Server.ReceiveCtx(ctx, user, above)
	p.receives++
	p.returned += len(msgs)
	return msgs, err
}

// handlerEndpoint calls a handler on the caller's goroutine, as a
// co-located linkage does: no transport goroutine allocates beside the
// measured call.
type handlerEndpoint struct{ h transport.Handler }

func (e handlerEndpoint) CallContext(_ context.Context, m *wire.Message) (*wire.Message, error) {
	return e.h.Handle(m), nil
}
func (e handlerEndpoint) Call(m *wire.Message) (*wire.Message, error) { return e.h.Handle(m), nil }
func (e handlerEndpoint) Close() error                                { return nil }

// TestReceiveAllocGuard bounds what a receive of an unchanged inbox
// costs: 64 messages of 1 KiB at sensitivity 2 held by a trust-4 view
// (the mailbox-mix shape), read by a Client through NewHandler(view)
// with the primary upstream. The first receive transforms every
// message; from the second on nothing is sealed, the upstream is asked
// only for what is above the view's trust and answers with no messages.
// What remains is one reply buffer of exact size, the stub's decode
// into one message array with bodies pointing into the reply, and the
// client's decrypt: 330 allocations and 155 KB a receive (3 999 and
// 428 KB when the reply was a generic wire value tree; 7 264 and
// 1 256 KB when every receive also re-sealed the inbox at the view and
// fetched it whole from the primary); the budgets are 20 % above.
// Allocation counts repeat exactly, so this is not env-gated.
func TestReceiveAllocGuard(t *testing.T) {
	const (
		inbox       = 64
		allocBudget = 396
		bytesBudget = 186 << 10
	)
	keys := seccrypto.NewKeyRing()
	clock := transport.NewRealClock()
	primary := &countingPrimary{Server: mail.NewServer(keys, clock)}
	for _, u := range []string{"alice", "bob"} {
		if err := primary.CreateAccount(u); err != nil {
			t.Fatal(err)
		}
	}
	view, err := mail.NewView(mail.ViewConfig{
		ID: "vms@sd-2", Trust: 4, Keys: keys.SubRing(4), Upstream: primary,
		Policy: coherence.CountBound{Bound: 500}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	alice := mail.NewClient("alice", keys, view)
	body := make([]byte, 1<<10)
	for i := 0; i < inbox; i++ {
		if _, err := alice.Send("bob", "s", body, 2); err != nil {
			t.Fatal(err)
		}
	}
	bob := mail.NewClient("bob", keys, mail.NewRemote(handlerEndpoint{mail.NewHandler(view)}))
	receive := func() {
		msgs, err := bob.Receive()
		if err != nil || len(msgs) != inbox {
			t.Fatalf("receive = %d messages, %v; want %d", len(msgs), err, inbox)
		}
	}
	receive() // transforms the inbox

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, receive)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured ones.
	bytesPerReceive := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("receive of %d cached messages: %.0f allocations, %d KB", inbox, allocs, bytesPerReceive>>10)
	if allocs > allocBudget {
		t.Errorf("a receive of an unchanged inbox allocates %.0f objects, budget is %d", allocs, allocBudget)
	}
	if bytesPerReceive > bytesBudget {
		t.Errorf("a receive of an unchanged inbox allocates %d KB, budget is %d KB", bytesPerReceive>>10, bytesBudget>>10)
	}
	if primary.receives != runs+2 || primary.returned != 0 {
		t.Errorf("the primary answered %d receives with %d messages in all; want one per receive, each empty",
			primary.receives, primary.returned)
	}
}

// TestSendAllocGuard bounds what a send through NewHandler(view) costs,
// in the two shapes the data workloads run: a 1 KiB send at sensitivity
// 2 that the trust-4 view seals and files (mailbox-mix), and a 10 KiB
// send at sensitivity 5 that it forwards to the primary through
// NewHandler(primary) (send-through, without the tunnel). The sealed
// body is written once, into the message encoding the store files and
// the coherence update carries: 10 allocations and 2 020 bytes, and 23
// and 12 183 (79 and 8 724, 147 and 50 405 when every argument, update
// and envelope was a generic wire value tree). The budgets are 20 %
// above; the counts repeat exactly.
func TestSendAllocGuard(t *testing.T) {
	keys := seccrypto.NewKeyRing()
	clock := transport.NewRealClock()
	primary := mail.NewServer(keys, clock)
	for _, u := range []string{"alice", "bob"} {
		if err := primary.CreateAccount(u); err != nil {
			t.Fatal(err)
		}
	}
	view, err := mail.NewView(mail.ViewConfig{
		ID: "vms@sd-2", Trust: 4, Keys: keys.SubRing(4),
		Upstream: mail.NewRemote(handlerEndpoint{mail.NewHandler(primary)}),
		Policy:   coherence.CountBound{Bound: 500}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	primary.Directory().Register(mail.ViewName, view.Replica())
	alice := mail.NewClient("alice", keys, mail.NewRemote(handlerEndpoint{mail.NewHandler(view)}))
	for _, tc := range []struct {
		name          string
		size, sens    int
		allocs, bytes float64
	}{
		{"1 KiB absorbed by the view", 1 << 10, 2, 12, 2424},
		{"10 KiB forwarded upstream", 10 << 10, 5, 27, 14620},
	} {
		body := make([]byte, tc.size)
		send := func() {
			if _, err := alice.Send("bob", "s", body, tc.sens); err != nil {
				t.Fatal(err)
			}
		}
		send()
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, send)
		runtime.ReadMemStats(&after)
		bytesPerSend := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%s: %.0f allocations, %d bytes", tc.name, allocs, bytesPerSend)
		if allocs > tc.allocs || (float64(bytesPerSend) > tc.bytes && !raceEnabled) {
			t.Errorf("%s allocates %.0f objects and %d bytes, budgets are %.0f and %.0f", tc.name, allocs, bytesPerSend, tc.allocs, tc.bytes)
		}
	}
	if view.Pending() == 0 || primary.Store().InboxCount("bob") == 0 {
		t.Errorf("the view holds %d pending sends and the primary %d messages for bob; want both shapes exercised",
			view.Pending(), primary.Store().InboxCount("bob"))
	}
}
