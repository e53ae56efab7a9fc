// Package fastpath serves hazard-free configurations at host speed: the
// interpreter's own executor (hwsim.Burst — the micro-op table of
// internal/hwsim built hazard-free and as one burst) runs each packet to
// its verdict at ingress, and Machine, a timing skeleton, reproduces the
// interpreter's hazard-free injection pacing, pipeline-depth latency and
// queue accounting around it. The differential suites prove the pipelined
// interpreter equivalent to sequential execution on verdicts, map effects
// and packet bytes, so a Machine is bit-identical to a hwsim.Sim wherever
// it is eligible to run (internal/conformance runs vm, hwsim and fastpath
// three ways). Fault injection, memory protection, the watchdog, stall
// policy and cycle-level observability keep the interpreter (see
// Eligible and the fallback matrix in DESIGN.md).
package fastpath

import (
	"fmt"

	"ehdl/internal/core"
	"ehdl/internal/ebpf"
	"ehdl/internal/hwsim"
	"ehdl/internal/maps"
	"ehdl/internal/protect"
	"ehdl/internal/vm"
)

// notRequested is the reason a shell or an RSS engine gives for serving
// from the interpreter when nobody asked for the fast path; every other
// reason comes from Eligible.
const notRequested = "fast path not requested"

// Eligible reports whether a simulator configuration can run on the
// compiled fast path, and names the feature that forces the interpreter
// when it cannot. The fallback matrix is documented in DESIGN.md.
func Eligible(cfg hwsim.Config) (bool, string) {
	switch {
	case cfg.Faults != nil:
		return false, "fault injection"
	case cfg.Protection != protect.LevelNone:
		return false, "map memory protection"
	case cfg.WatchdogCycles > 0:
		return false, "livelock watchdog"
	case cfg.Policy == hwsim.PolicyStall:
		return false, "stall hazard policy"
	case cfg.Trace != nil:
		return false, "cycle-level tracing"
	case cfg.Metrics != nil:
		return false, "pipeline metrics"
	}
	return true, ""
}

// pkt is one packet's ledger entry in the timing skeleton. The verdict
// is computed at ingress; the entry then flows through the queue and
// flight rings so completion timing, latency and queue accounting match
// the interpreter's hazard-free schedule.
type pkt struct {
	seq        uint64
	injectedAt uint64
	retireAt   uint64
	frames     int
	action     ebpf.XDPAction
	redirect   uint32
	data       []byte // final packet bytes, only under KeepData
}

// ring is a fixed-capacity FIFO of ledger entries; it never reallocates
// after construction, keeping the per-packet path heap-free.
type ring struct {
	buf  []pkt
	head int
	n    int
}

func newRing(capacity int) ring { return ring{buf: make([]pkt, capacity)} }

// push and pop wrap by comparison, not modulo: an integer division per
// packet is measurable at these per-op budgets.
func (r *ring) push(p pkt) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = p
	r.n++
}

func (r *ring) pop() pkt {
	p := r.buf[r.head]
	r.buf[r.head].data = nil // drop the reference so KeepData copies are collectable
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return p
}

func (r *ring) peek() *pkt { return &r.buf[r.head] }

// Machine is the timing skeleton around one executor, with no per-packet
// heap allocation on the happy path. It satisfies hwsim.Core like
// hwsim.Sim, so the NIC shell and the RSS engine drive either
// interchangeably.
type Machine struct {
	exec *hwsim.Burst
	env  *vm.Env

	cycle      uint64
	seq        uint64
	depth      int
	injectGap  int
	queueDepth int
	frameBytes int
	clockHz    float64
	queueFull  bool
	keepData   bool
	queue      ring
	flight     ring

	// stats are the live counters, winBase their value when the open
	// Window began (see hwsim.Stats.CloseWindow).
	stats, winBase hwsim.Stats
	onComplete     func(hwsim.Result)
	err            error
}

// The Machine presents the same engine surface as the interpreter.
var _ hwsim.Core = (*Machine)(nil)

// NewCore is the one place an engine is chosen: the compiled machine
// when the fast path is requested and cfg is eligible for it, else the
// interpreter together with the reason — notRequested, or the feature
// Eligible named.
func NewCore(pl *core.Pipeline, cfg hwsim.Config, env *vm.Env, request bool) (hwsim.Core, string, error) {
	why := notRequested
	if request {
		if _, why = Eligible(cfg); why == "" {
			m, err := newMachine(pl, cfg, env)
			return m, "", err
		}
	}
	sim, err := hwsim.NewWithEnv(pl, cfg, env)
	return sim, why, err
}

// New binds a design to fresh maps.
func New(pl *core.Pipeline, cfg hwsim.Config) (*Machine, error) {
	env, err := vm.NewEnv(pl.Transformed)
	if err != nil {
		return nil, err
	}
	return newMachine(pl, cfg, env)
}

// Compile builds a design's executor on fresh maps under the default
// configuration: what serving it at host speed costs before the first
// packet.
func Compile(pl *core.Pipeline) (*Machine, error) { return New(pl, hwsim.Config{}) }

// newMachine binds a design to an environment: one executor and one
// skeleton per call, nothing mutable shared between them.
func newMachine(pl *core.Pipeline, cfg hwsim.Config, env *vm.Env) (*Machine, error) {
	if ok, why := Eligible(cfg); !ok {
		return nil, fmt.Errorf("fastpath: configuration requires the interpreter: %s", why)
	}
	if need := len(pl.Transformed.Maps); env.Maps.Len() < need {
		return nil, fmt.Errorf("fastpath: environment has %d maps, design needs %d", env.Maps.Len(), need)
	}
	exec, err := hwsim.NewBurst(pl, cfg, env)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		exec:       exec,
		env:        env,
		depth:      len(pl.Stages), // framing NOPs included
		queueDepth: cfg.QueueDepth(),
		frameBytes: pl.FrameBytes(),
		clockHz:    cfg.Clock(),
	}
	if env.Now == nil {
		m.SetClock(nil)
	}
	m.queue = newRing(m.queueDepth)
	m.flight = newRing(m.depth + 1)
	return m, nil
}

// Inject accepts a packet, executes it immediately, and enters its
// ledger entry into the timing skeleton. Refusal semantics (queue bound,
// overflow episodes) are identical to the interpreter's.
func (m *Machine) Inject(data []byte) bool {
	if !m.InputFree() {
		m.stats.QueueDrops++
		if !m.queueFull {
			m.queueFull = true
			m.stats.QueueOverflows++
		}
		return false
	}
	m.queueFull = false
	// Single-frame packets (the common case at 64-byte frames) skip the
	// division.
	frames := 1
	if len(data) > m.frameBytes {
		frames = (len(data) + m.frameBytes - 1) / m.frameBytes
	}
	p := pkt{seq: m.seq, injectedAt: m.cycle, frames: frames}
	m.seq++
	m.stats.Injected++
	if m.err == nil {
		run, err := m.exec.Run(data)
		if err != nil {
			m.err = fmt.Errorf("fastpath: seq %d: %w", p.seq, err)
		}
		p.action, p.redirect = run.Action, run.Redirect
		m.stats.MalformedDropped += run.Faults
		if m.keepData {
			p.data = append([]byte(nil), run.State.Pkt.Bytes()...)
		}
	}
	m.queue.push(p)
	return true
}

// Step advances the skeleton by one clock cycle: retire the entry
// leaving the last stage, then feed the input honouring multi-frame
// pacing — the same order and arithmetic as the interpreter's
// hazard-free schedule.
func (m *Machine) Step() error {
	if m.err != nil {
		return m.err
	}
	m.cycle++
	m.stats.Cycles++
	if m.flight.n > 0 && m.flight.peek().retireAt <= m.cycle {
		m.retire(m.flight.pop())
	}
	if m.injectGap > 0 {
		m.injectGap--
	} else if m.queue.n > 0 {
		p := m.queue.pop()
		p.retireAt = m.cycle + uint64(m.depth)
		m.flight.push(p)
		m.injectGap = p.frames - 1
	}
	return nil
}

// retire completes one ledger entry.
func (m *Machine) retire(p pkt) {
	latency := m.cycle - p.injectedAt
	m.stats.Retire(p.action, latency)
	if m.onComplete != nil {
		m.onComplete(hwsim.Result{
			Seq:             p.seq,
			Action:          p.action,
			RedirectIfindex: p.redirect,
			Data:            p.data,
			LatencyCycles:   latency,
		})
	}
}

// RunToCompletion steps the clock until the skeleton drains.
func (m *Machine) RunToCompletion(maxCycles uint64) error {
	for n := uint64(0); m.Busy(); n++ {
		if n >= maxCycles {
			return fmt.Errorf("fastpath: pipeline did not drain within %d cycles", maxCycles)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return m.err
}

// Busy reports whether any ledger entries remain queued or in flight.
func (m *Machine) Busy() bool { return m.queue.n > 0 || m.flight.n > 0 }

// InputFree reports whether the ingress can accept a packet this cycle.
func (m *Machine) InputFree() bool { return m.queue.n < m.queueDepth }

// Cycle returns the current clock cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// OnComplete registers a callback invoked as packets retire.
func (m *Machine) OnComplete(fn func(hwsim.Result)) { m.onComplete = fn }

// KeepData makes results carry the final packet bytes (this path
// allocates one copy per packet; benchmarks leave it off).
func (m *Machine) KeepData(keep bool) { m.keepData = keep }

// SetClock overrides the nanosecond clock visible to time helpers. Nil
// restores the hardware clock: the cycle count scaled to nanoseconds.
func (m *Machine) SetClock(fn func() uint64) {
	if fn == nil {
		fn = func() uint64 { return uint64(float64(m.cycle) / m.clockHz * 1e9) }
	}
	m.env.Now = fn
}

// Maps exposes the bound map set (the host interface).
func (m *Machine) Maps() *maps.Set { return m.env.Maps }

// Stats returns a copy of the counters so far.
func (m *Machine) Stats() hwsim.Stats { return m.stats.Snapshot(&m.winBase) }

// Window returns the counters accumulated since the previous Window
// call and opens the next window (see hwsim.Core).
func (m *Machine) Window(w *hwsim.Stats) { m.stats.CloseWindow(&m.winBase, w) }
