package hwsim

import (
	"ehdl/internal/ebpf"
	"ehdl/internal/faults"
)

// applyFaults lets the configured injector strike the live pipeline
// state at the top of a cycle: single-event upsets in packet-frame
// registers, stack bytes, in-flight packet data and map entries, plus
// forced flush storms. Every applied fault is recorded both in the
// injector's per-class counters and in Stats.FaultsInjected, so a
// campaign's effect is fully visible from the outside.
//
// All decisions draw from the injector's seeded PRNG and the pipeline
// advances deterministically, so a campaign with a fixed seed hits the
// same fault sites on every run.
func (s *Sim) applyFaults() {
	inj := s.cfg.Faults
	if inj == nil {
		return
	}

	// In-flight packets, oldest first, as deterministic SEU targets.
	jobs := s.targets[:0]
	for t := s.stages.oldest(); t >= 0; t = s.stages.prevOccupied(t) {
		jobs = append(jobs, s.stages.at(t))
	}
	s.targets = jobs

	if inj.Roll(faults.SEURegister) && len(jobs) > 0 {
		j := jobs[inj.Intn(faults.SEURegister, len(jobs))]
		// R0-R9 are carried pipeline registers; R10 is synthesised
		// wiring, not a flip-flop.
		reg := ebpf.Register(inj.Intn(faults.SEURegister, 10))
		j.st.Regs[reg] ^= 1 << inj.Intn(faults.SEURegister, 64)
		s.noteFault(inj, faults.SEURegister)
	}

	if inj.Roll(faults.SEUStack) && len(jobs) > 0 {
		j := jobs[inj.Intn(faults.SEUStack, len(jobs))]
		j.st.Stack[inj.Intn(faults.SEUStack, ebpf.StackSize)] ^= 1 << inj.Intn(faults.SEUStack, 8)
		s.noteFault(inj, faults.SEUStack)
	}

	if inj.Roll(faults.SEUPacket) && len(jobs) > 0 {
		j := jobs[inj.Intn(faults.SEUPacket, len(jobs))]
		if data := j.st.Pkt.Bytes(); len(data) > 0 {
			data[inj.Intn(faults.SEUPacket, len(data))] ^= 1 << inj.Intn(faults.SEUPacket, 8)
			s.noteFault(inj, faults.SEUPacket)
		}
	}

	if inj.Roll(faults.SEUMapEntry) && s.env.Maps.Len() > 0 {
		m, _ := s.env.Maps.ByID(inj.Intn(faults.SEUMapEntry, s.env.Maps.Len()))
		if n := m.Len(); n > 0 {
			victim := inj.Intn(faults.SEUMapEntry, n)
			i := 0
			m.Iterate(func(_, v []byte) bool {
				if i == victim {
					if len(v) > 0 {
						v[inj.Intn(faults.SEUMapEntry, len(v))] ^= 1 << inj.Intn(faults.SEUMapEntry, 8)
						s.noteFault(inj, faults.SEUMapEntry)
					}
					return false
				}
				i++
				return true
			})
		}
	}

	if inj.Roll(faults.FlushStorm) && s.stallPoint < 0 {
		s.forceFlushStorm(inj)
	}
}

func (s *Sim) noteFault(inj *faults.Injector, class faults.Class) {
	inj.Note(class)
	s.stats.FaultsInjected++
	if s.probes != nil {
		s.probes.onFault(s.cycle, int(class))
	}
}

// forceFlushStorm fires a spurious Flush Evaluation verdict on one
// flush-protected map: the packets in the hazard window are recalled
// and replayed (when safe) and the reload dead time is charged, exactly
// as if a stale read had been detected. Pipelines without a
// flush-protected map are immune.
func (s *Sim) forceFlushStorm(inj *faults.Injector) {
	var ids []int
	for i := range s.pl.Maps {
		if s.pl.Maps[i].NeedsFlush {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		return
	}
	mb := &s.pl.Maps[ids[inj.Intn(faults.FlushStorm, len(ids))]]
	writeStage := s.maps[mb.MapID].lastWrite
	if writeStage <= mb.FlushFromStage {
		return
	}
	// An empty key matches no unconfirmed read; force selects the safe
	// victims regardless.
	s.flushVictims(mb.FlushFromStage, writeStage, mb.MapID, nil, true)
	s.noteFault(inj, faults.FlushStorm)
}
