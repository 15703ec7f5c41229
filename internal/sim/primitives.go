package sim

// Resource is a counted resource (semaphore) with FIFO admission: the
// building block for modeling server capacity and exclusive locks.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []waiter // ring: live waiters are waiters[whead:], FIFO
	whead    int
}

// waiter is one parked acquirer.
type waiter struct {
	fn func()
	n  int
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{env: env, capacity: capacity}
}

func (r *Resource) dropFrontWaiter() {
	r.waiters[r.whead] = waiter{}
	r.whead++
	if r.whead == len(r.waiters) {
		r.waiters, r.whead = r.waiters[:0], 0
	} else if r.whead > len(r.waiters)/2 {
		n := copy(r.waiters, r.waiters[r.whead:])
		for i := n; i < len(r.waiters); i++ {
			r.waiters[i] = waiter{}
		}
		r.waiters, r.whead = r.waiters[:n], 0
	}
}

// AcquireFn obtains n units (n <= capacity) and then runs fn:
// synchronously when the units are free and nobody waits, otherwise
// when a Release admits this waiter, in FIFO order.
func (r *Resource) AcquireFn(n int, fn func()) {
	if n > r.capacity {
		panic("sim: Acquire exceeds resource capacity")
	}
	if r.whead == len(r.waiters) && r.inUse+n <= r.capacity {
		r.inUse += n
		fn()
		return
	}
	r.waiters = append(r.waiters, waiter{fn: fn, n: n})
	r.env.blocked++
}

// Release returns n units and admits waiting acquirers in FIFO order.
// Each admitted callback runs as an event at the current time.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Release below zero")
	}
	for r.whead < len(r.waiters) {
		w := r.waiters[r.whead]
		if r.inUse+w.n > r.capacity {
			return
		}
		r.inUse += w.n
		r.dropFrontWaiter()
		r.env.schedule(r.env.now, func() {
			r.env.blocked--
			w.fn()
		})
	}
}

// Mutex is an exclusive lock.
type Mutex struct{ r *Resource }

// NewMutex returns an unlocked mutex.
func NewMutex(env *Env) *Mutex { return &Mutex{r: NewResource(env, 1)} }

// LockFn acquires the mutex and then runs fn — synchronously when the
// mutex is free, otherwise in FIFO order once it is released.
func (m *Mutex) LockFn(fn func()) { m.r.AcquireFn(1, fn) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.r.Release(1) }

// Link models a network link with propagation latency and serialized
// transmission: transfers queue behind one another (FIFO) and each takes
// bytes/bandwidth transmission time plus latency. It reproduces the
// traffic-shaping behavior of the paper's Click-based emulation.
type Link struct {
	env *Env
	// LatencyMS is the one-way propagation delay.
	LatencyMS float64
	// BandwidthMbps is the transmission rate; zero means infinite.
	BandwidthMbps float64
	busyUntil     float64
	// BytesCarried accumulates total bytes for utilization reporting.
	BytesCarried int64
}

// NewLink returns a link bound to the environment.
func NewLink(env *Env, latencyMS, bandwidthMbps float64) *Link {
	return &Link{env: env, LatencyMS: latencyMS, BandwidthMbps: bandwidthMbps}
}

// TxMS returns the serialization time for a payload.
func (l *Link) TxMS(bytes int) float64 {
	if l.BandwidthMbps <= 0 || bytes <= 0 {
		return 0
	}
	return float64(bytes) * 8 / (l.BandwidthMbps * 1e6) * 1e3
}

// TransferFn moves bytes across the link and runs fn on delivery —
// after queueing, transmission and propagation — with the total delay
// experienced. One timer event per transfer.
func (l *Link) TransferFn(bytes int, fn func(delayMS float64)) {
	start := l.env.now
	if l.busyUntil < start {
		l.busyUntil = start
	}
	l.busyUntil += l.TxMS(bytes)
	l.BytesCarried += int64(bytes)
	l.env.At(l.busyUntil+l.LatencyMS, func() {
		fn(l.env.now - start)
	})
}
