package circuit

import "fmt"

// Engine selects which evaluation kernel the simulator runs net updates
// on: the fused kernel, or the reference interpreter it is checked
// against. Both are bit-identical (enforced by differential and fuzz
// tests); they differ only in speed.
type Engine uint8

const (
	// EngineAuto picks the fastest engine for the program (currently the
	// fused kernel). The zero value, so new simulators default to it.
	EngineAuto Engine = iota
	// EngineReference is the original block-walk interpreter: the
	// executable specification the fused kernel is tested against.
	EngineReference
	// EngineFused is the segmented step kernel: homogeneous op runs with
	// no per-op dispatch and first-driver stores instead of a netVals
	// clear.
	EngineFused
)

// ParseEngine maps a user-facing engine name to an Engine. The empty
// string and "auto" mean EngineAuto; "interpreter" and "reference" both
// name the block-walk interpreter.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "auto":
		return EngineAuto, nil
	case "interpreter", "reference":
		return EngineReference, nil
	case "fused":
		return EngineFused, nil
	}
	return EngineAuto, fmt.Errorf("circuit: unknown engine %q (want auto, interpreter, or fused)", name)
}

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineReference:
		return "interpreter"
	case EngineFused:
		return "fused"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// SetEngine selects the evaluation engine. EngineAuto (the default)
// resolves to the fused kernel.
func (s *Simulator) SetEngine(e Engine) {
	s.engine = e
	s.valsDirty = true
}

// EngineSelected reports the engine that will actually run, with
// EngineAuto resolved.
func (s *Simulator) EngineSelected() Engine {
	if s.engine == EngineAuto {
		return EngineFused
	}
	return s.engine
}
