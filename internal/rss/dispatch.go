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
	// Trace receives KindQueueSteer events. The dispatcher runs in the
	// caller's goroutine, so a shared (single-writer) tracer is safe
	// here even when the replica sims must not touch it.
	Trace *obs.Tracer
	// Metrics counts per-queue steering under rss.q<i>.steered.
	Metrics *obs.Registry
}

// DefaultBatch is the ingress batch size when the caller does not
// choose one: 64 packets, one MTU-ish burst, the same default DPDK rx
// bursts use.
const DefaultBatch = 64

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
	buf       [][]Item
	sinks     []chan []Item
}

// NewDispatcher builds the classifier and its per-queue channels. The
// returned channels carry batches to the workers; their buffer depth
// (4 batches) lets the dispatcher run ahead without unbounded memory.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	h, err := NewHasher(nil)
	if err != nil {
		return nil, err
	}
	return newDispatcher(cfg, h)
}

// newDispatcher is NewDispatcher over an already-built hasher: the
// engine builds one per Engine, not one per Start.
func newDispatcher(cfg DispatcherConfig, h *Hasher) (*Dispatcher, error) {
	ind, err := NewIndirection(cfg.Queues)
	if err != nil {
		return nil, err
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	cpp := cfg.CyclesPerPacket
	if cpp <= 0 {
		cpp = 1
	}
	d := &Dispatcher{
		hasher:   h,
		ind:      ind,
		batch:    batch,
		cpp:      cpp,
		trace:    cfg.Trace,
		perQueue: make([]uint64, cfg.Queues),
	}
	for q := 0; q < cfg.Queues; q++ {
		d.buf = append(d.buf, make([]Item, 0, batch))
		d.sinks = append(d.sinks, make(chan []Item, 4))
		if cfg.Metrics != nil {
			d.steered = append(d.steered, cfg.Metrics.Counter(metricSteered(q)))
		}
	}
	if cfg.Metrics != nil {
		d.fallbck = cfg.Metrics.Counter(metricFallback)
	}
	return d, nil
}

// Queues returns the queue count.
func (d *Dispatcher) Queues() int { return d.ind.Queues() }

// Sink returns the batch channel feeding queue q.
func (d *Dispatcher) Sink(q int) <-chan []Item { return d.sinks[q] }

// Offer classifies one arrival, stamps its due cycle and queues it on
// its batch. Returns the chosen queue.
func (d *Dispatcher) Offer(pkt []byte) int {
	return d.offer(pkt, true)
}

// OfferBurst is Offer without advancing the pacing clock: the frame
// arrives on the same cycle as the next paced packet (overflow bursts).
func (d *Dispatcher) OfferBurst(pkt []byte) int {
	return d.offer(pkt, false)
}

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
	d.buf[queue] = append(d.buf[queue], Item{Data: pkt, Due: due})
	if len(d.buf[queue]) >= d.batch {
		d.flush(queue)
	}
	return queue
}

// Arrivals returns the number of packets offered so far.
func (d *Dispatcher) Arrivals() uint64 { return d.arrivals }

// Fallbacks returns how many arrivals took the queue-0 catch-all.
func (d *Dispatcher) Fallbacks() uint64 { return d.fallbacks }

// PerQueue returns a copy of the per-queue steering counts.
func (d *Dispatcher) PerQueue() []uint64 {
	return append([]uint64(nil), d.perQueue...)
}

func (d *Dispatcher) flush(queue int) {
	if len(d.buf[queue]) == 0 {
		return
	}
	b := d.buf[queue]
	d.buf[queue] = make([]Item, 0, d.batch)
	d.sinks[queue] <- b
}

// FlushAll pushes every partial batch out.
func (d *Dispatcher) FlushAll() {
	for q := range d.buf {
		d.flush(q)
	}
}

// Close flushes and closes the sinks; the workers drain and exit.
func (d *Dispatcher) Close() {
	d.FlushAll()
	for _, c := range d.sinks {
		close(c)
	}
}
