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

// NotRequested is the reason a shell or an RSS engine gives for serving
// from the interpreter when nobody asked for the fast path; every other
// reason comes from Eligible.
const NotRequested = "fast path not requested"

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
	case cfg.StrictCarryCheck:
		return false, "strict carry checking"
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

// Machine binds a compiled Prog to one map environment and executes
// packets with no per-packet heap allocation on the happy path. Its
// surface mirrors hwsim.Sim (both satisfy hwsim.Core) so the NIC shell
// and the RSS engine drive either interchangeably.
type Machine struct {
	prog *Prog
	cfg  hwsim.Config
	env  *vm.Env
	exec *vm.ExecContext
	mem  *vm.MemSpace

	// mapsByID indexes the environment's maps by pipeline map ID for
	// direct handle capture (no name lookup on the packet path).
	mapsByID []maps.Map

	// Per-packet scratch, reused across packets. Block enablement is
	// epoch-stamped: blockOn[i] == epoch means block i is enabled for
	// the current packet, so the per-packet reset is one counter bump
	// instead of clearing a bitmap, and the probe is a load+compare.
	st         vm.State
	blockOn    []uint32
	epoch      uint32
	lookupAddr []uint64
	lookupVal  [][]byte // value slice behind lookupAddr, for direct access; one nil slot past the maps
	done       bool
	action     ebpf.XDPAction
	redirect   uint32

	// Timing skeleton.
	cycle      uint64
	seq        uint64
	injectGap  int
	queueDepth int
	frameBytes int
	oob        ebpf.XDPAction
	queueFull  bool
	quiesced   bool
	keepData   bool
	queue      ring
	flight     ring

	// stats are the live counters, winBase their value when the open
	// Window began (see hwsim.Stats.CloseWindow).
	stats, winBase hwsim.Stats
	// actionHist counts the common verdict values without a map access
	// per retire; out-of-range actions (a program returning an arbitrary
	// R0) fall through to the stats.Actions map. foldActions merges the
	// two before any snapshot.
	actionHist [8]uint64
	onComplete func(hwsim.Result)
	err        error
}

// The Machine presents the same engine surface as the interpreter.
var _ hwsim.Core = (*Machine)(nil)

// New compiles a design and binds it to fresh maps.
func New(pl *core.Pipeline, cfg hwsim.Config) (*Machine, error) {
	env, err := vm.NewEnv(pl.Transformed)
	if err != nil {
		return nil, err
	}
	return NewWithEnv(pl, cfg, env)
}

// NewWithEnv compiles a design and binds it to an existing environment
// (shared maps, custom clock).
func NewWithEnv(pl *core.Pipeline, cfg hwsim.Config, env *vm.Env) (*Machine, error) {
	prog, err := Compile(pl)
	if err != nil {
		return nil, err
	}
	return prog.NewMachine(cfg, env)
}

// NewMachine binds a compiled program to an environment. A Prog may be
// bound many times (one Machine per RSS replica); the Machines share
// the closures but nothing mutable.
func (p *Prog) NewMachine(cfg hwsim.Config, env *vm.Env) (*Machine, error) {
	if ok, why := Eligible(cfg); !ok {
		return nil, fmt.Errorf("fastpath: configuration requires the interpreter: %s", why)
	}
	if env.Maps.Len() < p.numMaps {
		return nil, fmt.Errorf("fastpath: environment has %d maps, design needs %d", env.Maps.Len(), p.numMaps)
	}
	m := &Machine{
		prog:       p,
		cfg:        cfg,
		env:        env,
		mem:        vm.NewMemSpace(p.pl.Transformed, env.Maps),
		st:         vm.State{Pkt: vm.NewPacket(make([]byte, 1514))},
		blockOn:    make([]uint32, p.numBlocks),
		lookupAddr: make([]uint64, p.numMaps),
		lookupVal:  make([][]byte, p.numMaps+1),
		frameBytes: p.frameBytes,
	}
	m.exec = &vm.ExecContext{Env: env, Mem: m.mem}
	m.mapsByID = make([]maps.Map, p.numMaps)
	for id := 0; id < p.numMaps; id++ {
		mp, ok := env.Maps.ByID(id)
		if !ok {
			return nil, fmt.Errorf("fastpath: environment is missing map %d", id)
		}
		m.mapsByID[id] = mp
	}
	// Defaults replicated from hwsim.Config so the two execution modes
	// agree on geometry without exporting the accessors.
	m.queueDepth = cfg.InputQueuePackets
	if m.queueDepth <= 0 {
		m.queueDepth = 4096
	}
	m.oob = cfg.OOBAction
	if m.oob == 0 {
		m.oob = ebpf.XDPDrop
	}
	clock := cfg.ClockHz
	if clock <= 0 {
		clock = 250e6
	}
	if env.Now == nil {
		// The hardware clock: cycle count scaled to nanoseconds.
		env.Now = func() uint64 {
			return uint64(float64(m.cycle) / clock * 1e9)
		}
	}
	m.queue = newRing(m.queueDepth)
	m.flight = newRing(p.depth + 1)
	m.stats.Actions = map[ebpf.XDPAction]uint64{}
	return m, nil
}

// enable marks a successor block runnable for the current packet.
func (m *Machine) enable(i int) { m.blockOn[i] = m.epoch }

// fault applies the hardware bounds check's verdict to the in-flight
// packet: done, OOB action, one malformed-drop counted per occurrence.
func (m *Machine) fault() {
	m.done = true
	m.action = m.oob
	m.stats.MalformedDropped++
}

// scratchArgs clears R1-R5 after a helper, per the calling convention.
func (m *Machine) scratchArgs() {
	for r := ebpf.R1; r <= ebpf.R5; r++ {
		m.st.Regs[r] = 0
	}
}

// bytesAt returns an aliasing view of n bytes at a virtual address, for
// helper arguments whose pointer is not statically resolvable.
func (m *Machine) bytesAt(addr uint64, n int) ([]byte, error) {
	kind, b, off, err := m.mem.Resolve(&m.st, addr, n)
	if err != nil {
		return nil, err
	}
	if kind == vm.RegionCtx {
		return nil, fmt.Errorf("helper argument points into xdp_md")
	}
	return b[off : off+n : off+n], nil
}

// runPacket resets the scratch state and runs the closure chain.
func (m *Machine) runPacket(data []byte, p *pkt) {
	st := &m.st
	// Only the statically writable span can be dirty; everything else
	// has stayed zero since the machine was built.
	st.Reset(data, m.prog.stackLo, m.prog.stackHi)
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps could alias, rewind them
		for i := range m.blockOn {
			m.blockOn[i] = 0
		}
		m.epoch = 1
	}
	m.blockOn[0] = m.epoch // the entry block is always enabled
	clear(m.lookupAddr)
	clear(m.lookupVal)
	m.done = false
	m.action = 0
	m.redirect = 0

	// Enable bits are only ever set, never cleared, within one packet:
	// a block observed enabled stays enabled, so consecutive ops of the
	// same block skip the bitset probe (a disabled block re-probes, in
	// case an op in between just enabled it). Ops of one stage execute
	// "in parallel": an exit or bounds fault latches the verdict without
	// suppressing its neighbours, so done-ness applies at the stage
	// boundaries the flat op slice carries.
	lastBlock, lastOn := -1, false
	lastStage := int32(-1)
	epoch := m.epoch
	ops := m.prog.ops
	for ci := 0; ci < len(ops); {
		c := &ops[ci]
		if c.stage != lastStage {
			if m.done {
				break
			}
			lastStage = c.stage
		}
		if c.blockID != lastBlock || !lastOn {
			lastBlock, lastOn = c.blockID, m.blockOn[c.blockID] == epoch
			if !lastOn {
				// The whole contiguous run of this block is dead:
				// nothing inside it executes, so nothing can enable it
				// before the run ends. One hop skips it.
				ci = c.skip
				continue
			}
		}
		ci++
		// Infallible register-only ops dispatch without the error
		// check; anything touching memory or helpers goes through run.
		if c.alu != nil {
			c.alu(st)
			if c.fall >= 0 {
				m.blockOn[c.fall] = epoch
			}
			continue
		}
		if c.pred != nil {
			t := c.notTaken
			if c.pred(st) {
				t = c.taken
			}
			if t >= 0 {
				m.blockOn[t] = epoch
			}
			continue
		}
		if c.mem != nil {
			switch err := c.mem(st, m.lookupVal[c.val]); {
			case err == nil:
				if c.fall >= 0 {
					m.blockOn[c.fall] = epoch
				}
			case err == vm.ErrPacketBounds:
				m.fault()
			default:
				m.err = fmt.Errorf("fastpath: seq %d stage %d: %w", p.seq, c.stage, err)
				return
			}
			continue
		}
		if err := c.run(m); err != nil {
			m.err = fmt.Errorf("fastpath: seq %d stage %d: %w", p.seq, c.stage, err)
			return
		}
	}
	p.action = m.action
	p.redirect = m.redirect
	if m.keepData {
		p.data = append([]byte(nil), st.Pkt.Bytes()...)
	}
}

// Inject accepts a packet, executes it immediately, and enters its
// ledger entry into the timing skeleton. Refusal semantics (quiesce,
// queue bound, overflow episodes) are identical to the interpreter's.
func (m *Machine) Inject(data []byte) bool {
	if m.quiesced {
		return false
	}
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
		m.runPacket(data, &p)
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
		p.retireAt = m.cycle + uint64(m.prog.depth)
		m.flight.push(p)
		m.injectGap = p.frames - 1
	}
	return nil
}

// retire completes one ledger entry.
func (m *Machine) retire(p pkt) {
	latency := m.cycle - p.injectedAt
	m.stats.Completed++
	m.stats.LatencySum += latency
	if latency > m.stats.LatencyMax {
		m.stats.LatencyMax = latency
	}
	if int(p.action) < len(m.actionHist) {
		m.actionHist[p.action]++
	} else {
		m.stats.Actions[p.action]++
	}
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

// Drained reports whether the skeleton has fully drained.
func (m *Machine) Drained() bool { return !m.Busy() }

// InputFree reports whether the ingress can accept a packet this cycle.
func (m *Machine) InputFree() bool { return m.queue.n < m.queueDepth }

// Quiesce closes the ingress without counting drops, like hwsim.
func (m *Machine) Quiesce() { m.quiesced = true }

// Resume reopens a quiesced ingress.
func (m *Machine) Resume() { m.quiesced = false }

// Quiesced reports whether the ingress is closed.
func (m *Machine) Quiesced() bool { return m.quiesced }

// Cycle returns the current clock cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Now returns the nanosecond clock visible to time helpers.
func (m *Machine) Now() uint64 { return m.env.Now() }

// NextSeq returns the sequence number the next accepted packet carries.
func (m *Machine) NextSeq() uint64 { return m.seq }

// OnComplete registers a callback invoked as packets retire.
func (m *Machine) OnComplete(fn func(hwsim.Result)) { m.onComplete = fn }

// KeepData makes results carry the final packet bytes (this path
// allocates one copy per packet; benchmarks leave it off).
func (m *Machine) KeepData(keep bool) { m.keepData = keep }

// SetClock overrides the nanosecond clock visible to time helpers.
func (m *Machine) SetClock(fn func() uint64) { m.env.Now = fn }

// Maps exposes the bound map set (the host interface).
func (m *Machine) Maps() *maps.Set { return m.env.Maps }

// foldActions moves the verdict histogram fast-lane into stats.Actions.
func (m *Machine) foldActions() {
	for a, n := range m.actionHist {
		if n > 0 {
			m.stats.Actions[ebpf.XDPAction(a)] += n
			m.actionHist[a] = 0
		}
	}
}

// Stats returns a copy of the counters so far, Actions deep-copied.
func (m *Machine) Stats() hwsim.Stats {
	m.foldActions()
	out := m.stats
	out.LatencyMax = max(out.LatencyMax, m.winBase.LatencyMax)
	out.Actions = make(map[ebpf.XDPAction]uint64, len(m.stats.Actions))
	for a, n := range m.stats.Actions {
		out.Actions[a] = n
	}
	return out
}

// Window returns the counters accumulated since the previous Window
// call and opens the next window (see hwsim.Core).
func (m *Machine) Window(w *hwsim.Stats) {
	m.foldActions()
	m.stats.CloseWindow(&m.winBase, w)
}
