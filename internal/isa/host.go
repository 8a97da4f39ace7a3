package isa

import (
	"fmt"
)

// Host is the digital processor's driver for the analog accelerator: one
// typed method per Table I instruction. All methods are synchronous
// transactions over the underlying Transport.
type Host struct {
	t Transport
}

// NewHost wraps a transport.
func NewHost(t Transport) *Host { return &Host{t: t} }

// call performs one transaction and converts non-OK statuses to errors.
func (h *Host) call(op Opcode, payload []byte) ([]byte, error) {
	frame, err := EncodeFrame(op, payload)
	if err != nil {
		return nil, err
	}
	raw, err := h.t.Transact(frame)
	if err != nil {
		return nil, fmt.Errorf("isa: transport for %s: %w", op, err)
	}
	st, out, err := DecodeResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("isa: response for %s: %w", op, err)
	}
	if st != StatusOK {
		return nil, &DeviceError{Op: op, Status: st}
	}
	return out, nil
}

// Init runs on-chip calibration: the digital host finds calibration codes
// for all function units (binary search against trim DACs). Returns the
// number of units calibrated.
func (h *Host) Init() (int, error) {
	out, err := h.call(OpInit, nil)
	if err != nil {
		return 0, err
	}
	if len(out) < 2 {
		return 0, fmt.Errorf("isa: init response too short (%d bytes)", len(out))
	}
	return int(GetU16(out, 0)), nil
}

// SetConn creates an analog current connection between the analog
// interfaces of two units: source interface `src` feeds destination
// interface `dst`. Interface IDs come from the chip's resource map.
func (h *Host) SetConn(src, dst uint16) error {
	p := PutU16(PutU16(nil, src), dst)
	_, err := h.call(OpSetConn, p)
	return err
}

// SetIntInitial programs integrator `idx` with an ODE initial condition.
func (h *Host) SetIntInitial(idx uint16, value float64) error {
	p := PutF64(PutU16(nil, idx), value)
	_, err := h.call(OpSetIntInitial, p)
	return err
}

// SetMulGain programs multiplier `idx` with a constant gain.
func (h *Host) SetMulGain(idx uint16, gain float64) error {
	p := PutF64(PutU16(nil, idx), gain)
	_, err := h.call(OpSetMulGain, p)
	return err
}

// SetFunction loads lookup table `idx` with 256 sampled output codes, the
// serialized form of Table I's "pointer to nonlinear function" (the host
// samples the function; the wire carries the table).
func (h *Host) SetFunction(idx uint16, table [256]byte) error {
	p := PutU16(nil, idx)
	p = append(p, table[:]...)
	_, err := h.call(OpSetFunction, p)
	return err
}

// SetDacConstant programs DAC `idx` to emit a constant additive bias.
func (h *Host) SetDacConstant(idx uint16, value float64) error {
	p := PutF64(PutU16(nil, idx), value)
	_, err := h.call(OpSetDacConstant, p)
	return err
}

// SetTimeout arms the computation timer: once started, analog computation
// stops after `cycles` timer clock cycles (0 disarms).
func (h *Host) SetTimeout(cycles uint32) error {
	_, err := h.call(OpSetTimeout, PutU32(nil, cycles))
	return err
}

// CfgReset clears the staged configuration: all crossbar connections and
// unit registers return to power-on defaults. Calibration codes persist.
func (h *Host) CfgReset() error {
	_, err := h.call(OpCfgReset, nil)
	return err
}

// CfgCommit finishes configuration, writing any staged changes to the
// chip's registers. Config instructions before a commit are staged only.
func (h *Host) CfgCommit() error {
	_, err := h.call(OpCfgCommit, nil)
	return err
}

// ExecStart releases the integrators from their initial conditions,
// starting analog computation.
func (h *Host) ExecStart() error {
	_, err := h.call(OpExecStart, nil)
	return err
}

// ExecStop holds the integrators at their present values, stopping analog
// computation.
func (h *Host) ExecStop() error {
	_, err := h.call(OpExecStop, nil)
	return err
}

// SetAnaInputEn opens (or closes) chip analog input channel `idx`, letting
// outside stimulus alter computation.
func (h *Host) SetAnaInputEn(idx uint16, enable bool) error {
	p := PutU16(nil, idx)
	if enable {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	_, err := h.call(OpSetAnaInputEn, p)
	return err
}

// WriteParallel writes one byte to the chip's digital input port, where the
// DAC or lookup table can consume it.
func (h *Host) WriteParallel(data byte) error {
	_, err := h.call(OpWriteParallel, []byte{data})
	return err
}

// ReadSerial reads the output codes of all ADCs, one byte stream in ADC
// index order (multi-byte codes big endian, width per chip spec).
func (h *Host) ReadSerial() ([]byte, error) {
	return h.call(OpReadSerial, nil)
}

// AnalogAvg records ADC `idx` over `samples` conversions and returns the
// averaged value (full-scale units).
func (h *Host) AnalogAvg(idx uint16, samples uint16) (float64, error) {
	p := PutU16(PutU16(nil, idx), samples)
	out, err := h.call(OpAnalogAvg, p)
	if err != nil {
		return 0, err
	}
	if len(out) < 8 {
		return 0, fmt.Errorf("isa: analogAvg response too short (%d bytes)", len(out))
	}
	return GetF64(out, 0), nil
}

// ReadExp reads the exception vector: one bit per analog unit, packed LSB
// first, set where the unit exceeded its operating range.
func (h *Host) ReadExp() ([]byte, error) {
	return h.call(OpReadExp, nil)
}

// --- Lane-batched extension ---

// SetLanes stages the lane count: the next commit replicates the
// datapath's unit parameters across `lanes` independent lanes (0 returns
// the chip to scalar mode). The simulated chip accepts only 0 and its
// lane width, 16. A device without lane support answers StatusBadOpcode.
func (h *Host) SetLanes(lanes uint16) error {
	_, err := h.call(OpSetLanes, PutU16(nil, lanes))
	return err
}

// SetMulGainLane programs multiplier `idx` with lane `lane`'s gain.
func (h *Host) SetMulGainLane(lane, idx uint16, gain float64) error {
	p := PutF64(PutU16(PutU16(nil, lane), idx), gain)
	_, err := h.call(OpSetMulGainLane, p)
	return err
}

// SetDacConstantLane programs DAC `idx` with lane `lane`'s constant bias.
func (h *Host) SetDacConstantLane(lane, idx uint16, value float64) error {
	p := PutF64(PutU16(PutU16(nil, lane), idx), value)
	_, err := h.call(OpSetDacConstLane, p)
	return err
}

// ReadSerialLane reads the output codes of all ADCs as sampled by lane
// `lane`, in the same wire format as ReadSerial.
func (h *Host) ReadSerialLane(lane uint16) ([]byte, error) {
	return h.call(OpReadSerialLane, PutU16(nil, lane))
}

// AnalogAvgLane records lane `lane`'s ADC `idx` over `samples`
// conversions and returns the averaged value (full-scale units).
func (h *Host) AnalogAvgLane(lane, idx uint16, samples uint16) (float64, error) {
	p := PutU16(PutU16(PutU16(nil, lane), idx), samples)
	out, err := h.call(OpAnalogAvgLane, p)
	if err != nil {
		return 0, err
	}
	if len(out) < 8 {
		return 0, fmt.Errorf("isa: analogAvgLane response too short (%d bytes)", len(out))
	}
	return GetF64(out, 0), nil
}

// ReadExpLane reads lane `lane`'s exception vector in the same packed
// format as ReadExp.
func (h *Host) ReadExpLane(lane uint16) ([]byte, error) {
	return h.call(OpReadExpLane, PutU16(nil, lane))
}

// UnpackBits expands a packed exception vector into per-unit booleans.
func UnpackBits(packed []byte, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		if i/8 < len(packed) && packed[i/8]&(1<<uint(i%8)) != 0 {
			out[i] = true
		}
	}
	return out
}

// PackBits packs per-unit booleans into the wire format of ReadExp.
func PackBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}
