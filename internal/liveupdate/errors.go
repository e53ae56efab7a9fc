package liveupdate

import (
	"errors"
	"fmt"

	"ehdl/internal/ebpf"
)

// Stage identifies one stage of the live-update protocol.
type Stage int

// Update stages, in the order Swap runs them.
const (
	StageCutover    Stage = iota // the serving engine drains to the barrier
	StageGate                    // the schema check over the maps both programs declare
	StageShadow                  // the new program compiles, its engine is built and set up
	StageMigrate                 // the drained state copies into the new engine and the reference
	StageCanary                  // the new engine serves the canary window beside the reference
	StageDone                    // the update committed; the new engine serves
	StageRolledBack              // the update failed; the old engine serves
)

var stageNames = [...]string{"cutover", "gate", "shadow", "migrate", "canary", "done", "rolled-back"}

// String returns the canonical stage name.
func (s Stage) String() string {
	if s >= 0 && int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Every rollback reports an *UpdateError wrapping one of these, a
// *CompatError (which wraps ErrIncompatible), or the compile, setup or
// migration error itself.
var (
	// ErrIncompatible marks a map schema the gate refuses (test with
	// errors.Is).
	ErrIncompatible = errors.New("liveupdate: incompatible map schema")
	// ErrCanaryDiverged marks a new engine whose verdicts, packet bytes
	// or map effects diverged from the reference interpreter.
	ErrCanaryDiverged = errors.New("liveupdate: canary diverged from reference")
	// errEngineFault marks a new engine that errored or stalled serving
	// the canary (e.g. its recovery budget exhausted under faults).
	errEngineFault = errors.New("liveupdate: new engine fault")
)

// UpdateError reports a rolled-back update: the stage that failed and
// the underlying failure. The old engine serves on.
type UpdateError struct {
	Stage Stage
	Err   error
}

func (e *UpdateError) Error() string {
	return fmt.Sprintf("liveupdate: %s stage failed: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *UpdateError) Unwrap() error { return e.Err }

// CompatError describes one incompatible map schema between the old and
// new programs. It wraps ErrIncompatible.
type CompatError struct {
	Map      string // the shared map's name
	Field    string // "kind", "key_size", "value_size" or "max_entries"
	was, now int    // the mismatched values, old then new (ebpf.MapKind for "kind")
}

func (e *CompatError) Error() string {
	if e.Field == "kind" {
		return fmt.Sprintf("liveupdate: map %q: kind %v, new program declares %v",
			e.Map, ebpf.MapKind(e.was), ebpf.MapKind(e.now))
	}
	return fmt.Sprintf("liveupdate: map %q: %s %d, new program declares %d",
		e.Map, e.Field, e.was, e.now)
}

// Unwrap makes errors.Is(err, ErrIncompatible) hold.
func (e *CompatError) Unwrap() error { return ErrIncompatible }

// CheckCompat decides whether state stored under the old declaration
// can migrate into the new one: the map keeps its kind and its exact
// key and value widths (the layout of the BRAM words) and does not
// shrink below the old capacity (live entries might not fit). Widening
// capacity is allowed — the new design's BRAM simply has more rows.
func CheckCompat(old, new ebpf.MapSpec) error {
	if old.Kind != new.Kind {
		return &CompatError{Map: old.Name, Field: "kind", was: int(old.Kind), now: int(new.Kind)}
	}
	if old.KeySize != new.KeySize {
		return &CompatError{Map: old.Name, Field: "key_size", was: old.KeySize, now: new.KeySize}
	}
	if old.ValueSize != new.ValueSize {
		return &CompatError{Map: old.Name, Field: "value_size", was: old.ValueSize, now: new.ValueSize}
	}
	if new.MaxEntries < old.MaxEntries {
		return &CompatError{Map: old.Name, Field: "max_entries", was: old.MaxEntries, now: new.MaxEntries}
	}
	return nil
}

// CheckPrograms runs the compatibility check over every map the two
// programs share by name and returns the first incompatibility. Maps
// only the old program declares are dropped with their state; maps only
// the new program declares start fresh from the host's setup.
func CheckPrograms(old, new *ebpf.Program) error {
	byName := make(map[string]ebpf.MapSpec, len(new.Maps))
	for _, spec := range new.Maps {
		byName[spec.Name] = spec
	}
	for _, spec := range old.Maps {
		if ns, ok := byName[spec.Name]; ok {
			if err := CheckCompat(spec, ns); err != nil {
				return err
			}
		}
	}
	return nil
}
