// Package faults is the deterministic fault-injection subsystem of the
// simulated NIC: a seeded source of hardware and traffic faults that
// the pipeline simulator (internal/hwsim), the NIC shell (internal/nic)
// and the packet generator accept via configuration.
//
// Real FPGA pipelines treat soft errors as first-class events: single
// event upsets flip bits in live registers and BRAM, the MAC delivers
// truncated and oversize frames, and ingress queues overflow under
// bursts. The injector models those classes with per-cycle (or
// per-packet) probabilities drawn from one seeded PRNG, so a fault
// campaign is bit-reproducible: the same seed produces the same fault
// sites and the same final counters on every run.
//
// The injector only decides; the subsystem that owns the state applies
// the fault and records it with Note, which keeps this package free of
// simulator dependencies and keeps every applied fault visible in a
// counter.
package faults

import (
	"fmt"
	"math/rand"
	"strings"

	"ehdl/internal/pktgen"
)

// Class identifies one fault class.
type Class int

// Fault classes.
const (
	// SEURegister flips one bit of a live packet-frame register.
	SEURegister Class = iota
	// SEUStack flips one bit of an in-flight packet's stack frame.
	SEUStack
	// SEUPacket flips one bit of in-flight packet data.
	SEUPacket
	// SEUMapEntry flips one bit of a stored map value.
	SEUMapEntry
	// MalformedTraffic replaces a generated frame with a malformed one
	// (truncated headers, bogus length fields, runt/jumbo frames).
	MalformedTraffic
	// QueueOverflow injects an ingress burst sized to overflow the
	// input queue.
	QueueOverflow
	// FlushStorm forces a spurious flush-evaluation verdict, recalling
	// and replaying the packets in the hazard window.
	FlushStorm
	// NumClasses is the number of fault classes.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case SEURegister:
		return "seu-register"
	case SEUStack:
		return "seu-stack"
	case SEUPacket:
		return "seu-packet"
	case SEUMapEntry:
		return "seu-map"
	case MalformedTraffic:
		return "malformed"
	case QueueOverflow:
		return "overflow"
	case FlushStorm:
		return "flush-storm"
	}
	return "fault-?"
}

// Classes returns every fault class in a stable order.
func Classes() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Config parameterises an injector. All rates are probabilities in
// [0, 1]: per simulated clock cycle for the SEU, overflow and
// flush-storm classes, per generated packet for MalformedTraffic.
type Config struct {
	// Seed drives every random decision. Two injectors with the same
	// Config produce the same fault sequence. Every class derives its
	// own stream from this one seed (see Injector).
	Seed int64

	SEURegisterRate float64
	SEUStackRate    float64
	SEUPacketRate   float64
	SEUMapEntryRate float64
	MalformRate     float64
	OverflowRate    float64
	FlushStormRate  float64

	// OverflowBurstLen is the number of frames per injected ingress
	// burst. 0 means 64.
	OverflowBurstLen int
}

// Rate returns the configured probability for a class.
func (c Config) Rate(class Class) float64 {
	switch class {
	case SEURegister:
		return c.SEURegisterRate
	case SEUStack:
		return c.SEUStackRate
	case SEUPacket:
		return c.SEUPacketRate
	case SEUMapEntry:
		return c.SEUMapEntryRate
	case MalformedTraffic:
		return c.MalformRate
	case QueueOverflow:
		return c.OverflowRate
	case FlushStorm:
		return c.FlushStormRate
	}
	return 0
}

// Enabled reports whether any fault class has a non-zero rate.
func (c Config) Enabled() bool {
	for _, class := range Classes() {
		if c.Rate(class) > 0 {
			return true
		}
	}
	return false
}

// BurstLen returns the ingress burst size.
func (c Config) BurstLen() int {
	if c.OverflowBurstLen <= 0 {
		return 64
	}
	return c.OverflowBurstLen
}

// Fork derives a configuration whose injector draws streams unrelated
// to this one's while staying a pure function of the original seed: the
// shell hands a forked campaign to the new engine of a live update, so
// it faces the same fault classes and rates without perturbing (or
// copying) the serving pipeline's fault sites. Distinct tags give
// distinct streams.
func (c Config) Fork(tag int64) Config {
	const phi = int64(-0x61c8864680b583eb) // golden-ratio increment as int64
	c.Seed = splitmix(c.Seed ^ (tag+1)*phi)
	return c
}

// Profile returns the canonical chaos profile scaled by intensity in
// (0, 1]: at 1.0 roughly one SEU per few hundred cycles per class, one
// malformed frame per ~30 packets, and occasional overflow bursts and
// flush storms. Intensity 0 (or below) disables everything.
func Profile(intensity float64, seed int64) Config {
	if intensity < 0 {
		intensity = 0
	}
	return Config{
		Seed:            seed,
		SEURegisterRate: 0.004 * intensity,
		SEUStackRate:    0.004 * intensity,
		SEUPacketRate:   0.004 * intensity,
		SEUMapEntryRate: 0.002 * intensity,
		MalformRate:     0.03 * intensity,
		OverflowRate:    0.0005 * intensity,
		FlushStormRate:  0.001 * intensity,
	}
}

// Single returns a configuration exercising exactly one fault class at
// the given rate, for per-class resilience campaigns.
func Single(class Class, rate float64, seed int64) Config {
	c := Config{Seed: seed}
	switch class {
	case SEURegister:
		c.SEURegisterRate = rate
	case SEUStack:
		c.SEUStackRate = rate
	case SEUPacket:
		c.SEUPacketRate = rate
	case SEUMapEntry:
		c.SEUMapEntryRate = rate
	case MalformedTraffic:
		c.MalformRate = rate
	case QueueOverflow:
		c.OverflowRate = rate
	case FlushStorm:
		c.FlushStormRate = rate
	}
	return c
}

// Counters aggregates the faults an injector's owners applied.
type Counters struct {
	ByClass [NumClasses]uint64
}

// Total returns the number of applied faults across all classes.
func (c Counters) Total() uint64 {
	var n uint64
	for _, v := range c.ByClass {
		n += v
	}
	return n
}

func (c Counters) String() string {
	var parts []string
	for _, class := range Classes() {
		if n := c.ByClass[class]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", class, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Injector is one seeded fault source. It is not safe for concurrent
// use; the cycle-driven simulator consults it from a single goroutine.
//
// Every fault class owns an independent PRNG stream derived from the
// single configured seed. That makes a campaign byte-for-byte
// reproducible at the granularity of one class: a class's decision and
// fault-site sequence depends only on how often that class was
// consulted, never on how its draws interleave with other classes or
// other consumers (the NIC shell rolls for ingress bursts and malformed
// frames while the pipeline simulator rolls for SEUs and flush storms,
// and a live update adds a second pipeline mid-run — none of them can
// shift another's fault sites).
type Injector struct {
	cfg Config
	rng [NumClasses]*rand.Rand
	ctr Counters
}

// splitmix is the SplitMix64 finalizer, used to spread correlated seeds
// (consecutive integers, per-class offsets) into unrelated PRNG seeds.
func splitmix(v int64) int64 {
	z := uint64(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// New builds an injector for the configuration.
func New(cfg Config) *Injector {
	i := &Injector{cfg: cfg}
	for class := range i.rng {
		i.rng[class] = rand.New(rand.NewSource(splitmix(cfg.Seed + 1 + int64(class))))
	}
	return i
}

// Fork builds a new injector over Config.Fork(tag): same classes and
// rates, unrelated streams, fully determined by this injector's seed.
func (i *Injector) Fork(tag int64) *Injector { return New(i.cfg.Fork(tag)) }

// Roll decides whether to inject one fault of the class now. Disabled
// classes never draw from the PRNG, so the decision stream for the
// enabled classes is independent of which others are switched off.
func (i *Injector) Roll(class Class) bool {
	rate := i.cfg.Rate(class)
	if rate <= 0 {
		return false
	}
	return i.rng[class].Float64() < rate
}

// Intn draws a fault-site index in [0, n) from the class's stream;
// owners use it to pick the victim register, bit, byte or entry
// deterministically after a successful Roll of the same class.
func (i *Injector) Intn(class Class, n int) int {
	if n <= 1 {
		return 0
	}
	return i.rng[class].Intn(n)
}

// Note records one applied fault of the class.
func (i *Injector) Note(class Class) { i.ctr.ByClass[class]++ }

// Counters returns a snapshot of the applied-fault counters.
func (i *Injector) Counters() Counters { return i.ctr }

// BurstLen returns the configured ingress burst size.
func (i *Injector) BurstLen() int { return i.cfg.BurstLen() }

// WrapTraffic wraps a packet source with malformed-traffic injection:
// each generated frame is replaced, with probability MalformRate, by a
// deterministically damaged copy. With a nil injector or a zero rate
// the source is returned unchanged.
func (i *Injector) WrapTraffic(next func() []byte) func() []byte {
	if i == nil || i.cfg.MalformRate <= 0 {
		return next
	}
	return func() []byte {
		pkt := next()
		if !i.Roll(MalformedTraffic) {
			return pkt
		}
		kind := pktgen.MalformKind(i.Intn(MalformedTraffic, int(pktgen.NumMalformKinds)))
		i.Note(MalformedTraffic)
		return pktgen.Malform(pkt, kind, i.rng[MalformedTraffic])
	}
}
