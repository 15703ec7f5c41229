package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.1, 10}, {0.05, 10}, {1, 100}, {0.51, 60},
	} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailQuantileSelection(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{15, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// One request through two hops:
//
//	client      [0 ........................ 100]
//	call A        [10 ................ 90]
//	serve A          [20 ......... 80]
//	call B             [30 ... 60]
//	serve B              [35 . 55]
//
// plus a sibling call under serve A that overlaps call B.
func TestLinkAndSelfTime(t *testing.T) {
	mk := func(id int, kind string, start, end int64) span {
		return span{ID: id, Kind: kind, StartNS: start, EndNS: end, Parent: -1, Request: -1}
	}
	// Recorded in completion order, as the wrapper does.
	spans := []span{
		mk(0, kindServe, 35, 55),    // serve B
		mk(1, kindCall, 30, 60),     // call B
		mk(2, kindCall, 50, 70),     // sibling call, overlaps call B by 10
		mk(3, kindServe, 20, 80),    // serve A
		mk(4, kindCall, 10, 90),     // call A
		mk(5, kindClient, 0, 100),   // client
		mk(6, kindCall, 200, 210),   // an unrelated call outside any request
		mk(7, kindClient, 300, 300), // zero-length root
	}
	link(spans)
	wantParent := []int{1, 3, 3, 4, 5, -1, -1, -1}
	wantRequest := []int{5, 5, 5, 5, 5, 5, -1, 7}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Request != wantRequest[i] {
			t.Errorf("span %d: parent %d request %d, want %d and %d", i, s.Parent, s.Request, wantParent[i], wantRequest[i])
		}
	}
	// serve A's children cover [30,70] = 40 of its 60; the overlap of the
	// two calls is counted once.
	want := []int64{20, 10, 20, 20, 20, 20, 10, 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	// Self times of a request add up to its client span.
	var sum int64
	for i, st := range selfTimes(spans) {
		if spans[i].Request == 5 {
			sum += st
		}
	}
	if sum != 110 { // 100 + the 10 ns the overlapping siblings are both busy
		t.Errorf("self times of the request sum to %d, want 110", sum)
	}
}

func TestBreakDownHopsAndComponents(t *testing.T) {
	spans := []span{
		{ID: 0, Kind: kindServe, Name: "b", StartNS: 35000, EndNS: 55000, Parent: -1, Request: -1},
		{ID: 1, Kind: kindCall, Name: "b", Method: "send", StartNS: 30000, EndNS: 60000, Parent: -1, Request: -1},
		{ID: 2, Kind: kindServe, Name: "a", StartNS: 20000, EndNS: 80000, Parent: -1, Request: -1},
		{ID: 3, Kind: kindCall, Name: "a", Method: "send", StartNS: 10000, EndNS: 90000, Parent: -1, Request: -1},
		{ID: 4, Kind: kindClient, Name: "send", StartNS: 0, EndNS: 100000, Parent: -1, Request: -1},
	}
	link(spans)
	bd := breakDown(spans, map[string]string{"a": "MailClient@sd-2", "b": "MailServer@ny-1"}, "send")
	if bd.requests != 1 || bd.hops[0] != 2 {
		t.Fatalf("requests %d hops %v, want 1 request crossing 2 hops", bd.requests, bd.hops)
	}
	if bd.hopUS[0] != 15 { // (80-60 + 30-20) / 2 hops
		t.Errorf("mean hop = %g us, want 15", bd.hopUS[0])
	}
	if bd.stubUS[0] != 20 || bd.selfUS["MailClient"][0] != 30 || bd.selfUS["MailServer"][0] != 20 {
		t.Errorf("self times: stub %g relay %g server %g, want 20, 30, 20", bd.stubUS[0], bd.selfUS["MailClient"][0], bd.selfUS["MailServer"][0])
	}
	// stub + hops x hop + component self times is the request, exactly.
	if got := bd.stubUS[0] + bd.hops[0]*bd.hopUS[0] + 30 + 20; got != bd.totalUS[0] {
		t.Errorf("attribution identity gives %g us for a %g us request", got, bd.totalUS[0])
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	sp := planSpec{Ops: 400, BodyBytes: 256, Recipients: 16, ReceiveEvery: 20}
	a, b := makePlan(7, "mailbox-mix", 2, 1, sp), makePlan(7, "mailbox-mix", 2, 1, sp)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed, workload, round and caller gave different plans")
	}
	for _, other := range []*plan{
		makePlan(8, "mailbox-mix", 2, 1, sp), makePlan(7, "send-through", 2, 1, sp),
		makePlan(7, "mailbox-mix", 3, 1, sp), makePlan(7, "mailbox-mix", 2, 0, sp),
	} {
		if reflect.DeepEqual(a.Ops, other.Ops) || bytes.Equal(a.Bodies[0], other.Bodies[0]) {
			t.Error("a different seed, workload, round or caller gave the same plan")
		}
	}
	receives := 0
	for i, o := range a.Ops {
		if o.Kind == opReceive {
			receives++
			continue
		}
		got := a.stamped(nil, i)
		c, seq, ok := readStamp(got)
		if !ok || c != 1 || seq != i || !bytes.Equal(got[stampLen:], a.Bodies[o.Body][stampLen:]) {
			t.Fatalf("op %d: stamp reads (%d, %d, %v) or the body past it changed", i, c, seq, ok)
		}
	}
	if receives != sp.Ops/sp.ReceiveEvery {
		t.Errorf("%d receives in %d ops, want one per block of %d", receives, sp.Ops, sp.ReceiveEvery)
	}
	// Sends walk one seeded permutation of the recipients round-robin.
	var order []int
	for _, o := range a.Ops {
		if o.Kind == opSend {
			order = append(order, o.To)
		}
	}
	for i := sp.Recipients; i < len(order); i++ {
		if order[i] != order[i-sp.Recipients] {
			t.Fatalf("send %d goes to recipient %d, a round earlier to %d", i, order[i], order[i-sp.Recipients])
		}
	}
}

func TestScaledWorkNeverShrinksSizes(t *testing.T) {
	if got := scaled(20, sendThrough.roundsPerSecond, sendThrough.maxRounds); got != 28 {
		t.Errorf("20 s of send-through = %d rounds, want 28", got)
	}
	if got := scaled(1, 0.2, 4); got != 1 {
		t.Errorf("a 1 s run = %d rounds, want at least 1", got)
	}
	if got := scaled(60, 0.75, 24); got != 24 {
		t.Errorf("a 60 s recover run = %d trials, want the cap of 24", got)
	}
}
