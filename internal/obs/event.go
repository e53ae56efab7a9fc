// Package obs is the observability layer of the repository: a
// cycle-level pipeline tracer, a metrics registry, and profiling hooks.
//
// The design contract is zero overhead when disabled: every producer
// holds a nil *Tracer / nil *Registry until the caller opts in, and the
// emit paths are nil-receiver safe, so an uninstrumented run pays one
// pointer comparison per probe site. When enabled, the tracer streams
// typed events — the waveform of the simulated pipeline — into
// pluggable sinks, and the registry accumulates named counters and
// histograms that reports, CLIs and experiment tables consume.
package obs

import (
	"fmt"
)

// Kind classifies a pipeline event. The taxonomy covers everything the
// differential and invariant suites assert on: frame movement through
// stages, stage-enable predicate outcomes, WAR-buffer occupancy, RAW
// flush episodes, map accesses, verdicts, and the protection/recovery
// machinery.
type Kind uint8

// Event kinds.
const (
	// KindInject marks a packet accepted by the ingress queue.
	// Aux: packet length. Aux2: frame count.
	KindInject Kind = iota
	// KindQueueDrop marks a packet refused by the full ingress queue.
	// Aux: packet length.
	KindQueueDrop
	// KindStageEnter marks a frame occupying a pipeline stage for the
	// first cycle. Aux: 1 when the frame's verdict has already latched
	// (it flows through the remaining stages with every block bypassed).
	KindStageEnter
	// KindStageExit marks a frame leaving a stage (advance, flush recall
	// or retirement).
	KindStageExit
	// KindPredicate records a stage-enable predicate outcome.
	// Aux: 1 when the branch was taken. Aux2: the block enabled by the
	// outcome (NoBlock when the edge leaves the pipeline).
	KindPredicate
	// KindWARShadow records a write-delay shadow capture.
	// Aux: shadow buffer occupancy after the capture. Aux2: WAR depth.
	KindWARShadow
	// KindFlushBegin marks a RAW flush verdict. Aux: victims recalled.
	// Aux2: the elastic-buffer stage victims re-enter from.
	KindFlushBegin
	// KindFlushEnd marks the reload window closing. Aux: penalty cycles
	// from the flush verdict to release.
	KindFlushEnd
	// KindMapAccess records one map port operation. Aux: a MapOp value.
	KindMapAccess
	// KindVerdict marks a frame retiring. Aux: the XDP action.
	// Aux2: forwarding latency in cycles.
	KindVerdict
	// KindScrub marks a completed background-scrubber pass.
	// Aux: words checked in total. Aux2: 1 when the pass was clean.
	KindScrub
	// KindCheckpoint marks a known-good map snapshot. Aux: entries.
	KindCheckpoint
	// KindRecovery marks a drain-and-restart sequence. Aux: the attempt
	// number. Aux2: backoff cycles charged.
	KindRecovery
	// KindWatchdog marks a livelock-watchdog trip. Aux: the cycle of the
	// last retirement.
	KindWatchdog
	// KindFault marks an injected hardware fault. Aux: the fault class.
	KindFault
	// KindUpdatePhase marks a live-update stage transition; Cycle counts
	// from the drain barrier. Aux: the stage entered (a liveupdate.Stage
	// value). Aux2: a stage-specific detail — the drain tail entering
	// gate, entries migrated entering canary, packets canaried at done,
	// the failing stage at rolled-back.
	KindUpdatePhase
	// KindCanaryDiverge marks a new engine's divergence from the
	// reference during a live-update canary. Seq: the diverging packet's
	// sequence number on its queue. Aux: the mismatch class (a packet's
	// outcome, or the map state).
	KindCanaryDiverge
	// KindQueueSteer marks the RSS dispatcher classifying one arrival
	// to a pipeline replica. Seq: the global arrival index. Aux: the
	// queue chosen. Aux2: the Toeplitz hash (0 for non-IP frames taking
	// the queue-0 fallback). The multi-tenant classifier reuses the
	// kind for quarantine steers: Aux is the tenant the frame was
	// steered to (^0 for the device quarantine bucket), Aux2 is 1.
	KindQueueSteer
	// KindRolloutPhase marks a fleet rollout transition. Cycle: the
	// fleet epoch. Aux: the rollout phase entered (fleet's rollout
	// phase number). Aux2: the device concerned (NoBlock-style ^0 when the
	// event is fleet-wide).
	KindRolloutPhase
	// KindRebalance marks a fleet ring-membership change. Cycle: the
	// fleet epoch. Aux: the device drained or re-admitted. Aux2: 1 for a
	// drain, 0 for a re-admit.
	KindRebalance
	// KindTenantAdmit marks a tenant passing the budget admission gate
	// of a multi-tenant device. Aux: the tenant id. Aux2: the device
	// utilisation after admission, in tenths of a percent.
	KindTenantAdmit
	// KindTenantReject marks the admission gate refusing a tenant whose
	// design would push the device past the utilisation band. Aux: the
	// would-be utilisation in tenths of a percent. Aux2: the band
	// ceiling in tenths of a percent.
	KindTenantReject
	// KindTenantThrottle marks per-tenant ingress policing shedding
	// overload. Cycle: the device epoch. Aux: the tenant id. Aux2: the
	// frames shed in the epoch.
	KindTenantThrottle
	// KindJournalCommit marks a fleet epoch record fsynced to the
	// write-ahead journal. Cycle: the epoch. Aux2: the journal size in
	// bytes after the commit.
	KindJournalCommit
	// KindReplayEpoch marks one epoch re-executed and digest-verified
	// during crash recovery. Cycle: the epoch.
	KindReplayEpoch

	numKinds
)

var kindNames = [numKinds]string{
	KindInject:     "inject",
	KindQueueDrop:  "queue_drop",
	KindStageEnter: "stage_enter",
	KindStageExit:  "stage_exit",
	KindPredicate:  "predicate",
	KindWARShadow:  "war_shadow",
	KindFlushBegin: "flush_begin",
	KindFlushEnd:   "flush_end",
	KindMapAccess:  "map_access",
	KindVerdict:    "verdict",
	KindScrub:      "scrub",
	KindCheckpoint: "checkpoint",
	KindRecovery:   "recovery",
	KindWatchdog:   "watchdog",
	KindFault:      "fault",

	KindUpdatePhase:    "update_phase",
	KindCanaryDiverge:  "canary_diverge",
	KindQueueSteer:     "queue_steer",
	KindRolloutPhase:   "rollout_phase",
	KindRebalance:      "rebalance",
	KindTenantAdmit:    "tenant_admit",
	KindTenantReject:   "tenant_reject",
	KindTenantThrottle: "tenant_throttle",
	KindJournalCommit:  "journal_commit",
	KindReplayEpoch:    "replay_epoch",
}

// String returns the canonical event-class name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its canonical name so traces stay
// readable and stable across kind reordering.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a canonical kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("obs: malformed kind %q", b)
	}
	name := string(b[1 : len(b)-1])
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", name)
}

// Kinds returns every event class, for coverage assertions.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// MapOp enumerates map port operations for KindMapAccess events.
type MapOp uint64

// Map port operations.
const (
	MapOpLookup MapOp = iota
	MapOpUpdate
	MapOpDelete
	MapOpLoad   // load through the lookup pointer
	MapOpStore  // store through the lookup pointer
	MapOpAtomic // atomic read-modify-write through the lookup pointer
)

var mapOpNames = [...]string{"lookup", "update", "delete", "load", "store", "atomic"}

// String returns the operation name.
func (o MapOp) String() string {
	if int(o) < len(mapOpNames) {
		return mapOpNames[o]
	}
	return fmt.Sprintf("op(%d)", uint64(o))
}

// NoSeq marks an event not attributable to one frame.
const NoSeq int64 = -1

// NoStage and NoMap mark fields not applicable to an event.
const (
	NoStage = -1
	NoMap   = -1
)

// NoBlock marks a predicate edge that enables no block.
const NoBlock = ^uint64(0)

// Event is one cycle-stamped pipeline observation. The JSON field names
// are deliberately short: JSONL traces are committed as golden files.
type Event struct {
	// Cycle is the pipeline clock cycle the event occurred on.
	Cycle uint64 `json:"c"`
	// Kind classifies the event.
	Kind Kind `json:"k"`
	// Seq is the frame's injection sequence number, NoSeq when the
	// event is not tied to a frame.
	Seq int64 `json:"q"`
	// Stage is the pipeline stage, NoStage when not applicable.
	Stage int `json:"t"`
	// Map is the map identifier, NoMap when not applicable.
	Map int `json:"m"`
	// Aux and Aux2 carry kind-specific payloads (see the Kind docs).
	Aux  uint64 `json:"a"`
	Aux2 uint64 `json:"b"`
}

// String renders one compact human-readable line, the unit of the text
// sink's waveform-style dump.
func (e Event) String() string {
	s := fmt.Sprintf("%8d %-11s", e.Cycle, e.Kind)
	if e.Seq != NoSeq {
		s += fmt.Sprintf(" q%-4d", e.Seq)
	} else {
		s += "      "
	}
	if e.Stage != NoStage {
		s += fmt.Sprintf(" t%-3d", e.Stage)
	} else {
		s += "     "
	}
	if e.Map != NoMap {
		s += fmt.Sprintf(" m%d", e.Map)
	}
	switch e.Kind {
	case KindMapAccess:
		s += " " + MapOp(e.Aux).String()
	case KindPredicate:
		if e.Aux == 1 {
			s += " taken"
		} else {
			s += " fall"
		}
		if e.Aux2 != NoBlock {
			s += fmt.Sprintf(" ->b%d", e.Aux2)
		}
	case KindVerdict:
		s += fmt.Sprintf(" action=%d lat=%d", e.Aux, e.Aux2)
	default:
		if e.Aux != 0 || e.Aux2 != 0 {
			s += fmt.Sprintf(" a=%d b=%d", e.Aux, e.Aux2)
		}
	}
	return s
}
