package mail

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"partsvc/internal/coherence"
	"partsvc/internal/transport"
	"partsvc/internal/wire"
)

// figure5Outcome is everything application-visible from one run of the
// case-study mail scenario: what landed in the primary store, what the
// clients read back, and how overload surfaced.
type figure5Outcome struct {
	BobInbox   int
	Received   []string
	Contacts   []string
	SendErrs   []string
	ShedOK     int
	ShedDenied int
}

// runFigure5Scenario drives the full case-study deployment — client →
// view (write-through) → encryptor tunnel → transport → decryptor →
// primary — over the given transport, then saturates a 1-worker
// listener to exercise the shed path, and returns the outcome.
func runFigure5Scenario(t *testing.T, tr *transport.TCP) figure5Outcome {
	t.Helper()
	srv, keys, clock := newPrimary(t, "alice", "bob")
	channelKey, err := NewChannelKey()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tr.Serve("", NewDecryptorHandler(NewHandler(srv), channelKey))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ep, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	upstream := NewRemote(NewEncryptorEndpoint(ep, channelKey))
	view, err := NewView(ViewConfig{
		ID: "vms-sd", Trust: 4, Keys: keys.SubRing(4),
		Upstream: upstream, Policy: coherence.WriteThrough{}, Clock: clock,
	}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}

	var out figure5Outcome
	alice := NewClient("alice", keys, view)
	for i, msg := range []struct {
		subject, body string
		sensitivity   int
	}{
		{"plans", "meet at noon", 2},
		{"secret", "the payload", 3},
		{"note", "third message", 1},
	} {
		clock.now = float64(100 * (i + 1))
		if _, err := alice.Send("bob", msg.subject, []byte(msg.body), msg.sensitivity); err != nil {
			out.SendErrs = append(out.SendErrs, err.Error())
		}
	}
	out.BobInbox = srv.Store().InboxCount("bob")
	bob := NewClient("bob", keys, srv)
	msgs, err := bob.Receive()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		out.Received = append(out.Received, m.Subject+"="+string(m.Body))
	}
	if err := upstream.AddContact("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if out.Contacts, err = upstream.Contacts("alice"); err != nil {
		t.Fatal(err)
	}

	// Shed leg: a saturated 1-worker listener on the same transport must
	// answer overflow with ErrOverloaded (Workers/QueueDepth were set by
	// the caller).
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var enterOnce sync.Once
	slow := transport.HandlerFunc(func(m *wire.Message) *wire.Message {
		enterOnce.Do(entered.Done)
		<-release
		return &wire.Message{Kind: wire.KindResponse, ID: m.ID}
	})
	slowLn, err := tr.Serve("", slow)
	if err != nil {
		t.Fatal(err)
	}
	defer slowLn.Close()
	slowEp, err := tr.Dial(slowLn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slowEp.Close()

	const burst = 12
	results := make(chan error, burst)
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		resp, err := slowEp.Call(&wire.Message{Kind: wire.KindRequest, Method: "slow"})
		if err == nil {
			err = transport.AsError(resp)
		}
		results <- err
	}
	wg.Add(1)
	go call()
	entered.Wait()
	for i := 0; i < burst-1; i++ {
		wg.Add(1)
		go call()
	}
	// At least one shed reply must arrive while the worker is parked.
	select {
	case err := <-results:
		if !errors.Is(err, transport.ErrOverloaded) {
			t.Fatalf("first completed call got %v, want ErrOverloaded", err)
		}
		results <- err
	case <-time.After(10 * time.Second):
		t.Fatal("no shed reply while the pool was saturated")
	}
	close(release)
	wg.Wait()
	close(results)
	for err := range results {
		switch {
		case err == nil:
			out.ShedOK++
		case errors.Is(err, transport.ErrOverloaded):
			out.ShedDenied++
		default:
			t.Fatalf("shed-leg call failed with %v", err)
		}
	}
	return out
}

// TestFigure5OverTCP is the socket acceptance test for the case-study
// mail scenario: send/receive/contacts through the encryptor tunnel
// over TCP loopback must deliver exactly what was sent, and the
// overload-shed path must answer. Shed counts are timing-dependent, so
// that leg asserts "both outcomes occur and nothing is lost".
func TestFigure5OverTCP(t *testing.T) {
	tr := transport.NewTCP()
	tr.Workers = 1
	tr.QueueDepth = 2
	tr.CallTimeout = 30 * time.Second
	out := runFigure5Scenario(t, tr)

	want := figure5Outcome{
		BobInbox: 3,
		Received: []string{"plans=meet at noon", "secret=the payload", "note=third message"},
		Contacts: []string{"bob"},
	}
	got := out
	got.ShedOK, got.ShedDenied = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scenario outcome:\n got:  %+v\n want: %+v", got, want)
	}
	if out.ShedOK == 0 || out.ShedDenied == 0 || out.ShedOK+out.ShedDenied != 12 {
		t.Errorf("shed leg: ok=%d denied=%d, want both outcomes of 12", out.ShedOK, out.ShedDenied)
	}
}
