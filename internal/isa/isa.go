// Package isa implements the analog accelerator's instruction set
// architecture — Table I of the paper — as a byte-level framed command
// protocol in the spirit of the prototype's SPI interface. The digital host
// (internal/core) drives a Host; the chip controller (internal/chip)
// implements Device. Keeping a real serialized boundary between the two
// preserves the architectural property the paper relies on: configuration
// registers hold only a static bitstream ("akin to the program, and no
// dynamic computational data"), and all data readback is explicit.
package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Opcode identifies one instruction of Table I.
type Opcode uint8

// Instruction opcodes. Names follow Table I exactly.
const (
	OpInit           Opcode = 0x01 // control: find calibration codes for all units
	OpSetConn        Opcode = 0x02 // config: connect two analog interfaces
	OpSetIntInitial  Opcode = 0x03 // config: integrator initial condition
	OpSetMulGain     Opcode = 0x04 // config: multiplier gain
	OpSetFunction    Opcode = 0x05 // config: LUT contents
	OpSetDacConstant Opcode = 0x06 // config: DAC constant bias
	OpSetTimeout     Opcode = 0x07 // config: computation timeout
	OpCfgCommit      Opcode = 0x08 // config: write configuration to chip registers
	OpExecStart      Opcode = 0x09 // control: release integrators
	OpExecStop       Opcode = 0x0A // control: hold integrators
	OpSetAnaInputEn  Opcode = 0x0B // data input: open analog input channel
	OpWriteParallel  Opcode = 0x0C // data input: write a digital byte
	OpReadSerial     Opcode = 0x0D // data output: read all ADC outputs
	OpAnalogAvg      Opcode = 0x0E // data output: averaged ADC read
	OpReadExp        Opcode = 0x0F // exception: read exception vector
	// OpCfgReset clears the staged configuration (crossbar connections
	// and unit registers, not calibration codes). Not in Table I
	// explicitly — the prototype reconfigures by rewriting the whole
	// bitstream, and this instruction is the framed-protocol equivalent.
	OpCfgReset Opcode = 0x10

	// Lane-batched extension (not in Table I): the chip replicates the
	// committed datapath's unit parameters across B independent lanes and
	// steps all lanes through one shared op stream. Topology, LUT
	// contents, trims and mismatch are shared; DAC levels, constant
	// multiplier gains and integrator initial conditions may be
	// overridden per lane. An older device answers these opcodes with
	// StatusBadOpcode, which is how the host probes for lane support.
	OpSetLanes        Opcode = 0x11 // config: lane count (0 = scalar mode)
	OpSetIntInitLane  Opcode = 0x12 // config: per-lane integrator initial condition
	OpSetMulGainLane  Opcode = 0x13 // config: per-lane multiplier gain
	OpSetDacConstLane Opcode = 0x14 // config: per-lane DAC constant bias
	OpReadSerialLane  Opcode = 0x15 // data output: read all ADC outputs of one lane
	OpAnalogAvgLane   Opcode = 0x16 // data output: averaged ADC read of one lane
	OpReadExpLane     Opcode = 0x17 // exception: read one lane's exception vector
)

// String names the opcode as in Table I.
func (o Opcode) String() string {
	switch o {
	case OpInit:
		return "init"
	case OpSetConn:
		return "setConn"
	case OpSetIntInitial:
		return "setIntInitial"
	case OpSetMulGain:
		return "setMulGain"
	case OpSetFunction:
		return "setFunction"
	case OpSetDacConstant:
		return "setDacConstant"
	case OpSetTimeout:
		return "setTimeout"
	case OpCfgCommit:
		return "cfgCommit"
	case OpExecStart:
		return "execStart"
	case OpExecStop:
		return "execStop"
	case OpSetAnaInputEn:
		return "setAnaInputEn"
	case OpWriteParallel:
		return "writeParallel"
	case OpReadSerial:
		return "readSerial"
	case OpAnalogAvg:
		return "analogAvg"
	case OpReadExp:
		return "readExp"
	case OpCfgReset:
		return "cfgReset"
	case OpSetLanes:
		return "setLanes"
	case OpSetIntInitLane:
		return "setIntInitialLane"
	case OpSetMulGainLane:
		return "setMulGainLane"
	case OpSetDacConstLane:
		return "setDacConstantLane"
	case OpReadSerialLane:
		return "readSerialLane"
	case OpAnalogAvgLane:
		return "analogAvgLane"
	case OpReadExpLane:
		return "readExpLane"
	default:
		return fmt.Sprintf("Opcode(0x%02x)", uint8(o))
	}
}

// Status is the first byte of every device response.
type Status uint8

// Response status codes.
const (
	StatusOK        Status = 0x00
	StatusBadOpcode Status = 0x01
	StatusBadArgs   Status = 0x02
	StatusBadState  Status = 0x03 // e.g. config instruction while running
	StatusNoUnit    Status = 0x04 // resource index out of range
	StatusExceeded  Status = 0x05 // value outside programmable range
	StatusInternal  Status = 0x7F
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadOpcode:
		return "bad-opcode"
	case StatusBadArgs:
		return "bad-args"
	case StatusBadState:
		return "bad-state"
	case StatusNoUnit:
		return "no-unit"
	case StatusExceeded:
		return "exceeded"
	case StatusInternal:
		return "internal"
	default:
		return fmt.Sprintf("Status(0x%02x)", uint8(s))
	}
}

// DeviceError is a non-OK status returned by the chip, wrapped with the
// instruction that triggered it.
type DeviceError struct {
	Op     Opcode
	Status Status
}

// Error renders the device error.
func (e *DeviceError) Error() string {
	return fmt.Sprintf("isa: %s failed with status %s", e.Op, e.Status)
}

// Protocol framing errors.
var (
	ErrFrameTooShort = errors.New("isa: frame too short")
	ErrBadChecksum   = errors.New("isa: checksum mismatch")
	ErrFrameLength   = errors.New("isa: frame length field mismatch")
	ErrPayloadSize   = errors.New("isa: payload exceeds maximum size")
)

// MaxPayload bounds a frame payload (LUT tables are 256 bytes; readSerial
// of a large chip array needs more headroom).
const MaxPayload = 1 << 16

// crc8 computes a CRC-8/ATM (poly 0x07, init 0) over data: cheap enough
// for an SPI peripheral, strong enough to catch byte corruption in tests.
// One table lookup per byte; the bitwise definition it must match lives
// in the tests.
func crc8(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc = crc8Table[crc^b]
	}
	return crc
}

// crc8Table[i] is the CRC register after shifting byte i through the
// polynomial eight times.
var crc8Table = func() (t [256]byte) {
	for i := range t {
		crc := byte(i)
		for k := 0; k < 8; k++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// EncodeFrame wraps an opcode and payload into a wire frame:
// [op][len:u16][payload...][crc8 over everything before it].
func EncodeFrame(op Opcode, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("isa: %d bytes: %w", len(payload), ErrPayloadSize)
	}
	frame := make([]byte, 0, 4+len(payload))
	frame = append(frame, byte(op))
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(payload)))
	frame = append(frame, payload...)
	frame = append(frame, crc8(frame))
	return frame, nil
}

// DecodeFrame parses and validates a wire frame.
func DecodeFrame(frame []byte) (Opcode, []byte, error) {
	if len(frame) < 4 {
		return 0, nil, ErrFrameTooShort
	}
	n := int(binary.BigEndian.Uint16(frame[1:3]))
	if len(frame) != 4+n {
		return 0, nil, fmt.Errorf("isa: header says %d payload bytes, frame has %d: %w", n, len(frame)-4, ErrFrameLength)
	}
	if crc8(frame[:len(frame)-1]) != frame[len(frame)-1] {
		return 0, nil, ErrBadChecksum
	}
	return Opcode(frame[0]), frame[3 : 3+n], nil
}

// EncodeResponse wraps a status and payload into a response frame:
// [status][len:u16][payload...][crc8].
func EncodeResponse(st Status, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("isa: %d bytes: %w", len(payload), ErrPayloadSize)
	}
	frame := make([]byte, 0, 4+len(payload))
	frame = append(frame, byte(st))
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(payload)))
	frame = append(frame, payload...)
	frame = append(frame, crc8(frame))
	return frame, nil
}

// DecodeResponse parses and validates a response frame.
func DecodeResponse(frame []byte) (Status, []byte, error) {
	if len(frame) < 4 {
		return 0, nil, ErrFrameTooShort
	}
	n := int(binary.BigEndian.Uint16(frame[1:3]))
	if len(frame) != 4+n {
		return 0, nil, fmt.Errorf("isa: header says %d payload bytes, frame has %d: %w", n, len(frame)-4, ErrFrameLength)
	}
	if crc8(frame[:len(frame)-1]) != frame[len(frame)-1] {
		return 0, nil, ErrBadChecksum
	}
	return Status(frame[0]), frame[3 : 3+n], nil
}

// Payload field helpers: all multi-byte fields are big endian; floats are
// IEEE-754 binary64.

// PutU16 appends a uint16.
func PutU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// GetU16 reads a uint16 at offset.
func GetU16(b []byte, off int) uint16 { return binary.BigEndian.Uint16(b[off:]) }

// PutU32 appends a uint32.
func PutU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// GetU32 reads a uint32 at offset.
func GetU32(b []byte, off int) uint32 { return binary.BigEndian.Uint32(b[off:]) }

// PutF64 appends a float64.
func PutF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// GetF64 reads a float64 at offset.
func GetF64(b []byte, off int) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
}

// Device is the chip-side command processor: it receives a validated
// opcode and payload and returns a response payload or a failure status.
// Implementations must not retain the payload slice.
type Device interface {
	Execute(op Opcode, payload []byte) ([]byte, Status)
}

// Transport carries one request frame to the device and returns its
// response frame, like one chip-select cycle on the SPI bus.
type Transport interface {
	Transact(frame []byte) ([]byte, error)
}

// Loopback is an in-memory Transport bound directly to a Device,
// performing the device-side decode/encode. Construct with NewLoopback.
type Loopback struct {
	dev Device
	// Trace, if non-nil, observes every transaction (for tests/debugging).
	Trace func(op Opcode, req, resp []byte)
}

// NewLoopback wires a host-side transport to a device implementation.
func NewLoopback(dev Device) *Loopback { return &Loopback{dev: dev} }

// Transact decodes the request, executes it on the device, and encodes the
// response, mimicking the chip's SPI command engine.
func (l *Loopback) Transact(frame []byte) ([]byte, error) {
	op, payload, err := DecodeFrame(frame)
	if err != nil {
		// A real chip would NAK; surface the framing error as a response.
		return EncodeResponse(StatusBadArgs, nil)
	}
	out, st := l.dev.Execute(op, payload)
	resp, err := EncodeResponse(st, out)
	if err != nil {
		return nil, err
	}
	if l.Trace != nil {
		l.Trace(op, frame, resp)
	}
	return resp, nil
}
