package sim

import (
	"math"
	"sort"
)

// calQueue is a calendar queue (R. Brown, CACM 1988): events hash into
// day buckets of a repeating calendar year, each bucket a sorted
// singly-linked list of pooled event records. Amortized O(1)
// push/pop against the O(log n) of a binary heap, which dominates the
// scheduler's cost at large event populations. The bucket count and
// day width adapt to the live population; resizes also purge canceled
// entries (lazy dead-entry reclamation).
//
// Within a bucket, records with one timestamp form a run, a FIFO tie
// list: the run's first record (its leader) points at its last, so an
// insert steps over a whole run — or joins it at its end — in O(1)
// however many events are tied, and a pop hands the lead to the next
// record of the run.
//
// Correctness does not depend on the hash: an event is only dequeued
// from the current day's bucket when its timestamp falls inside the
// current day, and a full fruitless year falls back to a direct
// minimum search. Ordering is the simulator's (at, seq) contract.
type calQueue struct {
	buckets []*event
	// tails tracks the leader of each bucket's final run so the dominant
	// insertion pattern — equal-or-later timestamps with rising seq, e.g.
	// a burst of simultaneous events — appends in O(1) instead of walking
	// the list (the classic calendar-queue quadratic pathology).
	tails []*event
	width float64 // day length in virtual ms
	n     int     // queued entries (including canceled-but-unpurged)
	cur   int     // bucket the scan is on
	top   float64 // upper time edge of the current day
	now   float64 // timestamp of the last popped event (queue's virtual clock)

	growAt, shrinkAt int

	stats *Stats
	free  func(*event) // returns purged records to the Env pool
}

// maxVirtualDay bounds at/width before conversion to an integer bucket
// index; anything beyond (or non-finite) parks in bucket 0, which the
// dequeue guards make merely a performance detail.
const maxVirtualDay = float64(1 << 53)

func newCalQueue(stats *Stats) *calQueue {
	q := &calQueue{stats: stats}
	q.reinit(2, 1, 0)
	return q
}

func (q *calQueue) reinit(nbuckets int, width, start float64) {
	q.buckets = make([]*event, nbuckets)
	q.tails = make([]*event, nbuckets)
	q.width = width
	q.growAt = 2 * nbuckets
	q.shrinkAt = nbuckets/2 - 2
	q.setScan(start)
}

func (q *calQueue) indexOf(at float64) int {
	v := at / q.width
	if !(v < maxVirtualDay) { // huge, +Inf or NaN
		return 0
	}
	return int(int64(v) % int64(len(q.buckets)))
}

// insert places ev in its bucket in (at, seq) order, without any
// bookkeeping (shared by push and resize rehashing).
func (q *calQueue) insert(ev *event) {
	i := q.indexOf(ev.at)
	ev.next, ev.last = nil, ev
	final := q.tails[i]
	if final == nil {
		q.buckets[i], q.tails[i] = ev, ev
		return
	}
	if end := final.last; !evless(ev, end) {
		end.next = ev
		if ev.at == final.at {
			final.last = ev
		} else {
			q.tails[i] = ev
		}
		return
	}
	// ev sorts before the bucket's final record: step from run to run to
	// the first one it does not wholly follow.
	var prev *event // leader of the run before lead
	lead := q.buckets[i]
	for !evless(ev, lead.last) {
		prev, lead = lead, lead.last.next
	}
	switch {
	case prev != nil && prev.at == ev.at:
		// The newest record of prev's timestamp: joins that run at its end.
		ev.next = lead
		prev.last.next = ev
		prev.last = ev
	case !evless(ev, lead):
		// Tied with lead's run but older than its last record (a popped
		// record pushed back keeps its seq): walk the ties.
		p := lead
		for !evless(ev, p.next) {
			p = p.next
		}
		ev.next = p.next
		p.next = ev
	default:
		ev.next = lead
		if ev.at == lead.at { // takes over the lead of the run
			ev.last = lead.last
			if final == lead {
				q.tails[i] = ev
			}
		}
		if prev == nil {
			q.buckets[i] = ev
		} else {
			prev.last.next = ev
		}
	}
}

func (q *calQueue) push(ev *event) {
	q.insert(ev)
	q.n++
	if ev.at < q.top-q.width {
		// The event lands in a day before the scan position — possible
		// after a resize or a horizon pushback left the scan at a
		// far-future day. Rewind the scan to the event's day so the
		// rotation cannot bypass it and pop out of (at, seq) order.
		q.setScan(ev.at)
	}
	if q.n > q.growAt {
		q.resize(2 * len(q.buckets))
	}
}

// setScan positions the rotation on the day containing time t.
func (q *calQueue) setScan(t float64) {
	q.cur = q.indexOf(t)
	if day := t / q.width; day < maxVirtualDay {
		q.top = (math.Floor(day) + 1) * q.width
	} else {
		q.top = math.Inf(1)
	}
}

func (q *calQueue) pop() *event {
	if q.n == 0 {
		return nil
	}
	if math.IsInf(q.top, 1) {
		// Timestamps beyond the finite-day range: a bucket rotation can
		// no longer bound the next event's day, so the first non-empty
		// bucket is not necessarily the minimum. Search directly instead
		// of trusting the scan.
		return q.popMin()
	}
	for range q.buckets {
		if h := q.buckets[q.cur]; h != nil && h.at < q.top {
			return q.take(q.cur, h)
		}
		q.cur++
		if q.cur == len(q.buckets) {
			q.cur = 0
		}
		q.top += q.width
	}
	// A full year with nothing due: jump the scan straight to the
	// global minimum.
	return q.popMin()
}

// popMin finds and removes the global minimum by scanning every bucket
// head (lists are sorted, so heads suffice), repositioning the rotation
// on its day.
func (q *calQueue) popMin() *event {
	var min *event
	minIdx := 0
	for i, h := range q.buckets {
		if h != nil && (min == nil || evless(h, min)) {
			min, minIdx = h, i
		}
	}
	q.setScan(min.at) // indexOf(min.at) == minIdx: that's where it was inserted
	return q.take(minIdx, min)
}

func (q *calQueue) take(i int, head *event) *event {
	if head.at > q.now {
		q.now = head.at
	}
	next := head.next
	q.buckets[i] = next
	if head.last != head { // next is tied with head: it leads the run now
		next.last = head.last
		if q.tails[i] == head {
			q.tails[i] = next
		}
	} else if next == nil {
		q.tails[i] = nil
	}
	head.next, head.last = nil, nil
	q.n--
	if q.n < q.shrinkAt {
		q.resize(len(q.buckets) / 2)
	}
	return head
}

// resize rebuilds the bucket array around the live population: it
// purges canceled entries, re-estimates the day width from a sample of
// pending timestamps, and rehashes. The scan restarts at
// min(lastPopped, earliest pending) — the earliest pending event alone
// is not safe, because it can sit days past the current virtual time,
// and an event scheduled after the resize at an in-between time would
// hash behind the scan and pop out of order.
func (q *calQueue) resize(nbuckets int) {
	if nbuckets < 2 {
		nbuckets = 2
	}
	if nbuckets == len(q.buckets) {
		return
	}
	q.stats.Resizes++
	var live []*event
	start := math.Inf(1)
	for _, b := range q.buckets {
		for b != nil {
			next := b.next
			b.next, b.last = nil, nil
			if b.canceled {
				q.stats.Purged++
				if q.free != nil {
					q.free(b)
				}
			} else {
				live = append(live, b)
				if b.at < start {
					start = b.at
				}
			}
			b = next
		}
	}
	if start > q.now {
		start = q.now // covers len(live) == 0 too: start is +Inf then
	}
	q.reinit(nbuckets, q.estimateWidth(live), start)
	for _, ev := range live {
		q.insert(ev)
	}
	q.n = len(live)
}

// estimateWidth picks the day length as ~3x the mean separation of a
// deterministic sample of pending timestamps (Brown's rule of thumb),
// so a day holds a handful of events.
func (q *calQueue) estimateWidth(live []*event) float64 {
	const sampleMax = 32
	step := len(live)/sampleMax + 1
	ts := make([]float64, 0, sampleMax)
	for i := 0; i < len(live); i += step {
		if at := live[i].at; !math.IsInf(at, 0) && !math.IsNaN(at) {
			ts = append(ts, at)
		}
	}
	if len(ts) < 2 {
		return q.width
	}
	sort.Float64s(ts)
	sep := (ts[len(ts)-1] - ts[0]) / float64(len(ts)-1)
	width := 3 * sep
	if !(width > 0) || math.IsInf(width, 0) {
		return q.width
	}
	return width
}
