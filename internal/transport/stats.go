package transport

import (
	"sync"

	"partsvc/internal/metrics"
)

// Stats holds the per-transport data-plane counters. One Stats value is
// shared by every endpoint and connection of a transport so the totals
// describe the whole data plane. Every field is a plain atomic
// metrics.Counter or a lock-free metrics.Histogram, so Snapshot reads
// exact totals.
type Stats struct {
	// InFlight is the number of calls currently awaiting a response.
	InFlight metrics.Counter
	// FramesSent / FramesReceived count frames crossing the transport.
	FramesSent     metrics.Counter
	FramesReceived metrics.Counter
	// BytesSent / BytesReceived count framed bytes (headers included).
	BytesSent     metrics.Counter
	BytesReceived metrics.Counter
	// DecodeErrors counts frames whose payload failed to decode
	// (transport_decode_errors: corrupt or hostile traffic).
	DecodeErrors metrics.Counter
	// Shed counts requests refused by admission control: the worker
	// pool and its queue were both full, so the server answered with a
	// CodeOverloaded error instead of queueing.
	Shed metrics.Counter
	// QueueDepth is the number of admitted requests currently waiting
	// for (or held by the channel buffer ahead of) a worker.
	QueueDepth metrics.Counter
	// QueueWait records milliseconds each admitted request spent in the
	// dispatch queue before a worker picked it up — time-in-queue is
	// the first overload signal, visible well before shedding starts.
	QueueWait metrics.Histogram
	// liveQueues tracks the open MPSC write queues (registered at
	// creation, dropped at close) so Snapshot can report aggregate
	// write-queue depth by summing their sizes — keeping the per-frame
	// push path free of any global counter.
	liveQueues sync.Map // *writeQueue -> struct{}
	// WriterParks / WriterWakes count park/wake round trips on the MPSC
	// write queues: parks is writer goroutines going to sleep on an
	// empty queue, wakes is producers releasing them. A low park rate
	// under load means the spin-then-park coalescing is absorbing the
	// traffic without scheduler round trips.
	WriterParks metrics.Counter
	WriterWakes metrics.Counter
	// WriteBatch records the frame count of each writev flush — the
	// direct measure of write coalescing (batch p50 near 1 means no
	// coalescing; under load it should track the caller concurrency).
	WriteBatch metrics.Histogram
	// LocalCalls counts calls dispatched in process over an upgraded
	// co-located linkage: calls that skipped the socket, the codec and
	// the worker pool.
	LocalCalls metrics.Counter
}

// StatsSnapshot is a point-in-time copy of one transport's counters,
// suitable for rendering in tables. It is strictly per-transport: the
// process-wide wire buffer pool is reported separately by
// wire.SnapshotPool, so two live transports never fold each other's
// pool traffic into their own numbers.
type StatsSnapshot struct {
	InFlight       int64
	FramesSent     uint64
	FramesReceived uint64
	BytesSent      uint64
	BytesReceived  uint64
	DecodeErrors   uint64
	Shed           uint64
	QueueDepth     int64
	// QueueWaited counts requests that went through the dispatch queue;
	// the P50/P99/Max quantiles describe their wait in milliseconds.
	QueueWaited    uint64
	QueueWaitP50MS float64
	QueueWaitP99MS float64
	QueueWaitMaxMS float64
	// WriteQueueDepth / park-wake counters describe the MPSC write
	// queues; WriteBatches and the batch quantiles describe writev
	// coalescing (frames per flush).
	WriteQueueDepth int64
	WriterParks     uint64
	WriterWakes     uint64
	WriteBatches    uint64
	WriteBatchP50   float64
	WriteBatchP99   float64
	WriteBatchMax   float64
	// LocalCalls is the number of calls served in process over upgraded
	// co-located linkages.
	LocalCalls uint64
}

// Snapshot copies this transport's counters.
func (s *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		InFlight:       s.InFlight.Load(),
		FramesSent:     uint64(s.FramesSent.Load()),
		FramesReceived: uint64(s.FramesReceived.Load()),
		BytesSent:      uint64(s.BytesSent.Load()),
		BytesReceived:  uint64(s.BytesReceived.Load()),
		DecodeErrors:   uint64(s.DecodeErrors.Load()),
		Shed:           uint64(s.Shed.Load()),
		QueueDepth:     s.QueueDepth.Load(),

		WriterParks: uint64(s.WriterParks.Load()),
		WriterWakes: uint64(s.WriterWakes.Load()),
		LocalCalls:  uint64(s.LocalCalls.Load()),
	}
	s.liveQueues.Range(func(k, _ any) bool {
		snap.WriteQueueDepth += k.(*writeQueue).len()
		return true
	})
	if qw := &s.QueueWait; qw.Count() > 0 {
		snap.QueueWaited = qw.Count()
		snap.QueueWaitP50MS = qw.Quantile(0.50)
		snap.QueueWaitP99MS = qw.Quantile(0.99)
		snap.QueueWaitMaxMS = qw.Max()
	}
	if wb := &s.WriteBatch; wb.Count() > 0 {
		snap.WriteBatches = wb.Count()
		snap.WriteBatchP50 = wb.Quantile(0.50)
		snap.WriteBatchP99 = wb.Quantile(0.99)
		snap.WriteBatchMax = wb.Max()
	}
	return snap
}

// KVs renders the snapshot as registry rows.
func (s StatsSnapshot) KVs() []metrics.KV {
	return []metrics.KV{
		metrics.KVf("in_flight", "%d", s.InFlight),
		metrics.KVf("frames_sent", "%d", s.FramesSent),
		metrics.KVf("frames_received", "%d", s.FramesReceived),
		metrics.KVf("bytes_sent", "%d", s.BytesSent),
		metrics.KVf("bytes_received", "%d", s.BytesReceived),
		metrics.KVf("decode_errors", "%d", s.DecodeErrors),
		metrics.KVf("shed", "%d", s.Shed),
		metrics.KVf("queue_depth", "%d", s.QueueDepth),
		metrics.KVf("queue_wait_p50_ms", "%.3f", s.QueueWaitP50MS),
		metrics.KVf("queue_wait_p99_ms", "%.3f", s.QueueWaitP99MS),
		metrics.KVf("write_queue_depth", "%d", s.WriteQueueDepth),
		metrics.KVf("writer_parks", "%d", s.WriterParks),
		metrics.KVf("writer_wakes", "%d", s.WriterWakes),
		metrics.KVf("write_batch_p50", "%.1f", s.WriteBatchP50),
		metrics.KVf("write_batch_p99", "%.1f", s.WriteBatchP99),
		metrics.KVf("write_batch_max", "%.0f", s.WriteBatchMax),
		metrics.KVf("local_calls", "%d", s.LocalCalls),
	}
}
