package wire

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Size-classed scratch buffer pool. Marshaling and frame reading on the
// hot RPC path draw buffers from here instead of allocating; the
// hit/miss counters feed the transport metrics (pool hit rate).
//
// A single pool poisons itself under mixed frame sizes: a 64-byte
// buffer put back by a tiny control frame comes out again for a 16 KiB
// snapshot frame, forces a reallocation, and the fresh allocation's
// capacity is whatever append chose — so steady state keeps churning.
// Classing by capacity fixes that: Get asks for the class that fits,
// Put files the buffer under the largest class its capacity can still
// serve, and every class hit hands back a buffer guaranteed big enough.
// Buffers over maxPooledBuffer are dropped so one huge frame does not
// pin memory forever; zero-capacity buffers are rejected too (nothing
// to reuse, and pooling them would hand out useless hits).
const maxPooledBuffer = 1 << 20

// poolClasses are the class capacities. GetBufferSize(n) returns a
// buffer with at least the smallest class capacity >= n; PutBuffer
// files by the largest class <= cap(b).
var poolClasses = [...]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, maxPooledBuffer}

// Each class pool stores typed array pointers (*[4096]byte, ...), not
// *[]byte: a pointer stores directly in an interface word, so Put/Get
// never allocate a box for the slice header and the steady state is
// genuinely zero-allocation. A buffer whose capacity falls between
// classes (e.g. grown by append) is filed under the largest class it
// covers and comes back out truncated to that class's capacity.
var (
	bufPools             [len(poolClasses)]sync.Pool
	poolHits, poolMisses atomic.Uint64
)

// classFor returns the index of the smallest class that can hold n
// bytes, or -1 when n exceeds the largest class.
func classFor(n int) int {
	for i, size := range poolClasses {
		if n <= size {
			return i
		}
	}
	return -1
}

// putClass returns the index of the largest class cap(b) can serve, or
// -1 when the buffer is too small or too large to pool.
func putClass(c int) int {
	if c < poolClasses[0] || c > maxPooledBuffer {
		return -1
	}
	for i := len(poolClasses) - 1; i >= 0; i-- {
		if c >= poolClasses[i] {
			return i
		}
	}
	return -1
}

// GetBuffer returns a zero-length scratch buffer from the smallest
// class (encode paths that do not know their size up front).
func GetBuffer() []byte { return GetBufferSize(0) }

// GetBufferSize returns a zero-length buffer with capacity at least n.
// Requests beyond the largest class allocate directly (and will be
// dropped again by PutBuffer).
func GetBufferSize(n int) []byte {
	cls := classFor(n)
	if cls < 0 {
		poolMisses.Add(1)
		return make([]byte, 0, n)
	}
	if x := bufPools[cls].Get(); x != nil {
		var ptr *byte
		switch cls {
		case 0:
			ptr = &x.(*[4 << 10]byte)[0]
		case 1:
			ptr = &x.(*[16 << 10]byte)[0]
		case 2:
			ptr = &x.(*[64 << 10]byte)[0]
		case 3:
			ptr = &x.(*[256 << 10]byte)[0]
		default:
			ptr = &x.(*[maxPooledBuffer]byte)[0]
		}
		poolHits.Add(1)
		return unsafe.Slice(ptr, poolClasses[cls])[:0]
	}
	poolMisses.Add(1)
	return make([]byte, 0, poolClasses[cls])
}

// PutBuffer returns a buffer to its size class. Oversized buffers are
// dropped so one huge frame does not pin memory forever; undersized
// (including zero-capacity) buffers are dropped because handing them
// out again would just force the next user to reallocate.
func PutBuffer(b []byte) {
	cls := putClass(cap(b))
	if cls < 0 {
		return
	}
	ptr := unsafe.Pointer(unsafe.SliceData(b))
	switch cls {
	case 0:
		bufPools[0].Put((*[4 << 10]byte)(ptr))
	case 1:
		bufPools[1].Put((*[16 << 10]byte)(ptr))
	case 2:
		bufPools[2].Put((*[64 << 10]byte)(ptr))
	case 3:
		bufPools[3].Put((*[256 << 10]byte)(ptr))
	default:
		bufPools[4].Put((*[maxPooledBuffer]byte)(ptr))
	}
}

// PoolSnapshot is a point-in-time copy of the buffer pool counters.
// The pool is process-wide (shared by every transport in the process),
// so its numbers belong in a process-wide stats section, never in a
// per-transport one.
type PoolSnapshot struct {
	Hits   uint64
	Misses uint64
}

// SnapshotPool captures the process-wide buffer pool counters.
func SnapshotPool() PoolSnapshot {
	return PoolSnapshot{Hits: poolHits.Load(), Misses: poolMisses.Load()}
}

// HitRate returns the pool hit fraction (0 when unused).
func (p PoolSnapshot) HitRate() float64 {
	total := p.Hits + p.Misses
	if total == 0 {
		return 0
	}
	return float64(p.Hits) / float64(total)
}
