package liveupdate

import (
	"errors"
	"fmt"

	"ehdl/internal/ebpf"
)

// Stage identifies one phase of the live-update state machine.
type Stage int

// Update stages, in the order a successful update traverses them.
const (
	// StageIdle: no update in progress.
	StageIdle Stage = iota
	// StageShadow: the new pipeline is being instantiated and warmed up
	// alongside the old one.
	StageShadow
	// StageMigrate: map state is being copied from the old pipeline
	// through the compatibility checker, with concurrent writes captured
	// in the delta log.
	StageMigrate
	// StageCanary: a fraction of live traffic is mirrored to the shadow
	// pipeline and diffed against a reference interpreter running the
	// new program.
	StageCanary
	// StageCutover: ingress is held, the old pipeline drains to a
	// deadline, and the shadow takes over atomically.
	StageCutover
	// StagePostVerify: the new pipeline serves all traffic while a
	// bounded window of verdicts is still checked against the reference
	// (divergences are counted, not fatal).
	StagePostVerify
	// StageDone: the update committed; the controller is inert.
	StageDone
	// StageRolledBack: the update failed; the old pipeline kept serving.
	StageRolledBack

	numStages
)

var stageNames = [numStages]string{
	StageIdle:       "idle",
	StageShadow:     "shadow",
	StageMigrate:    "migrate",
	StageCanary:     "canary",
	StageCutover:    "cutover",
	StagePostVerify: "post-verify",
	StageDone:       "done",
	StageRolledBack: "rolled-back",
}

// String returns the canonical stage name.
func (s Stage) String() string {
	if s >= 0 && int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Sentinel failures. Every rollback reports an *UpdateError wrapping
// one of these (or a *CompatError, which wraps ErrIncompatible).
var (
	// ErrIncompatible marks a map schema the migration checker refuses:
	// mismatched key/value widths, a different map kind, or shrunk
	// capacity. Test with errors.Is.
	ErrIncompatible = errors.New("liveupdate: incompatible map schema")
	// ErrDeltaOverflow marks a migration whose bounded delta log filled
	// before the bulk copy finished: the old pipeline wrote faster than
	// the migration budget copied.
	ErrDeltaOverflow = errors.New("liveupdate: delta log overflow")
	// ErrCanaryDiverged marks a shadow pipeline whose verdicts, packet
	// bytes or map effects diverged from the reference interpreter.
	ErrCanaryDiverged = errors.New("liveupdate: canary diverged from reference")
	// errCanaryDeadline marks a canary that did not reach its packet
	// target before the deadline expired.
	errCanaryDeadline = errors.New("liveupdate: canary deadline expired")
	// errDrainTimeout marks an old pipeline that did not drain within the
	// cutover deadline (or the bounded backoff attempts).
	errDrainTimeout = errors.New("liveupdate: cutover drain timed out")
	// errShadowFault marks a shadow pipeline that errored while stepping
	// (e.g. its recovery budget exhausted under fault injection).
	errShadowFault = errors.New("liveupdate: shadow pipeline fault")
)

// UpdateError reports a failed (rolled back) update: which stage failed
// and why. The old pipeline keeps serving; nothing about the data path
// changed.
type UpdateError struct {
	// Stage is the stage that failed.
	Stage Stage
	// Err is the underlying failure.
	Err error
}

func (e *UpdateError) Error() string {
	return fmt.Sprintf("liveupdate: %s stage failed: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *UpdateError) Unwrap() error { return e.Err }

// CompatError describes one incompatible map schema between the old and
// new programs. It wraps ErrIncompatible.
type CompatError struct {
	// Map is the shared map name.
	Map string
	// Field names the mismatched property: "key_size", "value_size",
	// "kind" or "max_entries".
	Field string
	// Old and New are the mismatched values (ebpf.MapKind for "kind").
	Old, New int
}

func (e *CompatError) Error() string {
	if e.Field == "kind" {
		return fmt.Sprintf("liveupdate: map %q: kind %v, new program declares %v",
			e.Map, ebpf.MapKind(e.Old), ebpf.MapKind(e.New))
	}
	return fmt.Sprintf("liveupdate: map %q: %s %d, new program declares %d",
		e.Map, e.Field, e.Old, e.New)
}

// Unwrap makes errors.Is(err, ErrIncompatible) hold.
func (e *CompatError) Unwrap() error { return ErrIncompatible }
