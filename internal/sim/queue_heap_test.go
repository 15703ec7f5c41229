package sim

// eventQueue is the contract the ordering oracle tests drive on both
// the calendar queue and the heap: a strict priority queue over
// (at, seq).
type eventQueue interface {
	push(*event)
	pop() *event // minimum (at, seq), or nil when empty
}

// heapQueue is the seed scheduler's binary-heap event queue, kept as
// the ordering oracle for the calendar queue.
type heapQueue struct {
	evs []*event
}

func (q *heapQueue) len() int { return len(q.evs) }

func (q *heapQueue) push(ev *event) {
	q.evs = append(q.evs, ev)
	// Sift up.
	i := len(q.evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evless(q.evs[i], q.evs[parent]) {
			break
		}
		q.evs[i], q.evs[parent] = q.evs[parent], q.evs[i]
		i = parent
	}
}

func (q *heapQueue) pop() *event {
	n := len(q.evs)
	if n == 0 {
		return nil
	}
	min := q.evs[0]
	last := q.evs[n-1]
	q.evs[n-1] = nil
	q.evs = q.evs[:n-1]
	if n > 1 {
		q.evs[0] = last
		// Sift down.
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(q.evs) && evless(q.evs[l], q.evs[smallest]) {
				smallest = l
			}
			if r < len(q.evs) && evless(q.evs[r], q.evs[smallest]) {
				smallest = r
			}
			if smallest == i {
				break
			}
			q.evs[i], q.evs[smallest] = q.evs[smallest], q.evs[i]
			i = smallest
		}
	}
	min.next = nil
	return min
}
