package rss

import (
	"fmt"

	"ehdl/internal/obs"
)

// Item is one classified arrival travelling from the dispatcher to a
// replica worker.
type Item struct {
	// Data is the frame.
	Data []byte
	// Due is the global arrival cycle the packet may enter its replica:
	// the dispatcher stamps arrival i with floor(i * cyclesPerPacket),
	// so every replica paces against the same simulated wall clock and
	// the results are independent of host goroutine scheduling.
	Due uint64
}

// DispatcherConfig parameterises the classifier front-end.
type DispatcherConfig struct {
	// Queues is the number of pipeline replicas. Must be >= 1.
	Queues int
	// Batch is how many classified packets accumulate per queue before
	// the batch is handed to the worker (amortising channel operations,
	// the software analogue of the distributor's burst crossbar).
	// 0 means DefaultBatch.
	Batch int
	// CyclesPerPacket is the arrival pacing in clock cycles (from the
	// offered rate). 0 means back-to-back (1 cycle per packet).
	CyclesPerPacket float64
}

// DefaultBatch is the ingress batch size when the caller does not
// choose one: 64 packets, one MTU-ish burst, the same default DPDK rx
// bursts use.
const DefaultBatch = 64

// sinkDepth is how many batches a queue's channel holds: the dispatcher
// runs that far ahead of its worker, and no further.
const sinkDepth = 4

// rotation is how many batch buffers each queue cycles through: a full
// channel, one batch in the worker's hands and one being filled.
const rotation = sinkDepth + 2

// metricSteered returns the per-queue steering counter name.
func metricSteered(queue int) string { return fmt.Sprintf("rss.q%d.steered", queue) }

// MetricCompleted returns the per-queue completion counter name.
func MetricCompleted(queue int) string { return fmt.Sprintf("rss.q%d.completed", queue) }

// metricFallback is the counter of non-IP/malformed frames steered to
// the queue-0 catch-all.
const metricFallback = "rss.fallback_steers"

// Dispatcher classifies arrivals to queues and batches them toward the
// replica workers. It is single-goroutine: the shell's drive loop owns
// it.
type Dispatcher struct {
	hasher *Hasher
	ind    *Indirection
	batch  int
	cpp    float64

	trace   *obs.Tracer
	steered []*obs.Counter
	fallbck *obs.Counter

	arrivals uint64
	// paced counts only rate-paced arrivals: burst frames share the due
	// cycle of the next paced packet instead of advancing the clock.
	paced     uint64
	fallbacks uint64
	perQueue  []uint64
	lanes     []lane
}

// lane is one queue's side of the hand-off: its channel and the fixed
// rotation of batch buffers that travel through it.
type lane struct {
	sink chan []Item
	bufs [rotation][]Item
	fill int // index in bufs of the batch being filled
}

// NewDispatcher builds the classifier and its per-queue channels. The
// channels carry batches to the workers; a batch is valid until the
// consumer's next receive from the same sink, when the dispatcher may
// refill its buffer.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	d, err := newDispatcher(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	d.arm(cfg.CyclesPerPacket)
	return d, nil
}

// newDispatcher is NewDispatcher with observers and not yet armed (arm
// sets the pacing; cfg.CyclesPerPacket is ignored). trace receives
// KindQueueSteer events (the dispatcher runs in the caller's goroutine,
// so a single-writer tracer is safe here even when the replica sims
// must not touch it) and metrics counts per-queue steering under
// rss.q<i>.steered. Either may be nil.
func newDispatcher(cfg DispatcherConfig, trace *obs.Tracer, metrics *obs.Registry) (*Dispatcher, error) {
	h, err := NewHasher(nil)
	if err != nil {
		return nil, err
	}
	ind, err := NewIndirection(cfg.Queues)
	if err != nil {
		return nil, err
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	d := &Dispatcher{
		hasher:   h,
		ind:      ind,
		batch:    batch,
		trace:    trace,
		perQueue: make([]uint64, cfg.Queues),
		lanes:    make([]lane, cfg.Queues),
	}
	if metrics != nil {
		for q := range d.lanes {
			d.steered = append(d.steered, metrics.Counter(metricSteered(q)))
		}
		d.fallbck = metrics.Counter(metricFallback)
	}
	return d, nil
}

// arm readies the dispatcher for a session: zero counters, the given
// pacing and fresh sinks. The first arm allocates every lane's buffers;
// later ones reuse them, each free again once the consumers of the
// previous session's sinks have drained them.
func (d *Dispatcher) arm(cyclesPerPacket float64) {
	if d.lanes[0].bufs[0] == nil {
		backing := make([]Item, len(d.lanes)*rotation*d.batch)
		for q := range d.lanes {
			for i := range d.lanes[q].bufs {
				off := (q*rotation + i) * d.batch
				d.lanes[q].bufs[i] = backing[off : off : off+d.batch]
			}
		}
	}
	if cyclesPerPacket <= 0 {
		cyclesPerPacket = 1
	}
	d.cpp = cyclesPerPacket
	d.arrivals, d.paced, d.fallbacks = 0, 0, 0
	clear(d.perQueue)
	for q := range d.lanes {
		l := &d.lanes[q]
		l.sink = make(chan []Item, sinkDepth)
		l.fill = 0
		l.bufs[0] = l.bufs[0][:0]
	}
}

// Sink returns the batch channel feeding queue q. A batch received from
// it is valid until the consumer's next receive from the same sink.
func (d *Dispatcher) Sink(q int) <-chan []Item { return d.lanes[q].sink }

// Offer classifies one arrival, stamps its due cycle and queues it on
// its batch. Returns the chosen queue.
func (d *Dispatcher) Offer(pkt []byte) int {
	return d.offer(pkt, true)
}

// offer is Offer; a burst frame (pacedArrival false) does not advance
// the pacing clock: it arrives on the same cycle as the next paced
// packet (overflow bursts).
func (d *Dispatcher) offer(pkt []byte, pacedArrival bool) int {
	hash, ok := d.hasher.HashPacket(pkt)
	queue := 0
	if ok {
		queue = d.ind.QueueFor(hash)
	} else {
		hash = 0
		d.fallbacks++
		if d.fallbck != nil {
			d.fallbck.Inc()
		}
	}
	seq := d.arrivals
	due := uint64(float64(d.paced) * d.cpp)
	d.arrivals++
	if pacedArrival {
		d.paced++
	}
	d.perQueue[queue]++
	if d.trace.Enabled() {
		d.trace.Emit(obs.Event{
			Cycle: due,
			Kind:  obs.KindQueueSteer,
			Seq:   int64(seq),
			Stage: obs.NoStage,
			Map:   obs.NoMap,
			Aux:   uint64(queue),
			Aux2:  uint64(hash),
		})
	}
	if d.steered != nil {
		d.steered[queue].Inc()
	}
	l := &d.lanes[queue]
	l.bufs[l.fill] = append(l.bufs[l.fill], Item{Data: pkt, Due: due})
	if len(l.bufs[l.fill]) >= d.batch {
		l.flush()
	}
	return queue
}

// flush sends the batch being filled and starts filling the next buffer
// of the rotation. That buffer left rotation-1 = sinkDepth+1 sends ago,
// and the send just made needed a free slot in a sinkDepth-deep
// channel: the consumer has received the batch after it, so it is done
// with it.
func (l *lane) flush() {
	if len(l.bufs[l.fill]) == 0 {
		return
	}
	l.sink <- l.bufs[l.fill]
	l.fill = (l.fill + 1) % rotation
	l.bufs[l.fill] = l.bufs[l.fill][:0]
}

// Close pushes every partial batch out and closes the sinks; the
// workers drain and exit.
func (d *Dispatcher) Close() {
	for q := range d.lanes {
		d.lanes[q].flush()
		close(d.lanes[q].sink)
	}
}
