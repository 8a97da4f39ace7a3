package isa

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 250}
	frame, err := EncodeFrame(OpSetMulGain, payload)
	if err != nil {
		t.Fatal(err)
	}
	op, got, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpSetMulGain || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: op=%v payload=%v", op, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	frame, err := EncodeFrame(OpExecStart, nil)
	if err != nil {
		t.Fatal(err)
	}
	op, payload, err := DecodeFrame(frame)
	if err != nil || op != OpExecStart || len(payload) != 0 {
		t.Fatalf("empty frame: %v %v %v", op, payload, err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	frame, _ := EncodeFrame(OpSetConn, []byte{0, 1, 0, 2})
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestFrameTooShortAndLengthMismatch(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{1, 2}); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("err=%v", err)
	}
	frame, _ := EncodeFrame(OpReadExp, []byte{9, 8, 7})
	if _, _, err := DecodeFrame(frame[:len(frame)-2]); !errors.Is(err, ErrFrameLength) {
		t.Fatalf("err=%v", err)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	big := make([]byte, MaxPayload+1)
	if _, err := EncodeFrame(OpSetFunction, big); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("err=%v", err)
	}
	if _, err := EncodeResponse(StatusOK, big); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("err=%v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp, err := EncodeResponse(StatusNoUnit, []byte{7})
	if err != nil {
		t.Fatal(err)
	}
	st, payload, err := DecodeResponse(resp)
	if err != nil || st != StatusNoUnit || len(payload) != 1 || payload[0] != 7 {
		t.Fatalf("response round trip: %v %v %v", st, payload, err)
	}
}

func TestFieldHelpers(t *testing.T) {
	b := PutF64(PutU32(PutU16(nil, 0xBEEF), 0xDEADBEEF), -math.Pi)
	if GetU16(b, 0) != 0xBEEF || GetU32(b, 2) != 0xDEADBEEF || GetF64(b, 6) != -math.Pi {
		t.Fatal("field helpers round trip failed")
	}
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	ops := []Opcode{OpInit, OpSetConn, OpSetIntInitial, OpSetMulGain, OpSetFunction,
		OpSetDacConstant, OpSetTimeout, OpCfgCommit, OpExecStart, OpExecStop,
		OpSetAnaInputEn, OpWriteParallel, OpReadSerial, OpAnalogAvg, OpReadExp}
	seen := map[string]bool{}
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Fatalf("opcode %d bad name %q", op, s)
		}
		seen[s] = true
	}
	if Opcode(0xEE).String() == "" || Status(0x33).String() == "" {
		t.Fatal("unknown opcode/status empty name")
	}
	for _, st := range []Status{StatusOK, StatusBadOpcode, StatusBadArgs, StatusBadState, StatusNoUnit, StatusExceeded, StatusInternal} {
		if st.String() == "" {
			t.Fatalf("status %d empty name", st)
		}
	}
}

func TestBitPacking(t *testing.T) {
	bits := []bool{true, false, false, true, true, false, false, false, true}
	packed := PackBits(bits)
	if len(packed) != 2 || packed[0] != 0b00011001 || packed[1] != 0b00000001 {
		t.Fatalf("packed=%08b", packed)
	}
	back := UnpackBits(packed, len(bits))
	for i := range bits {
		if back[i] != bits[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	// Unpacking beyond packed length yields false.
	if UnpackBits(packed, 20)[19] {
		t.Fatal("phantom bit set")
	}
}

// scriptedDevice records executed instructions and plays back canned
// responses.
type scriptedDevice struct {
	ops      []Opcode
	payloads [][]byte
	respond  func(op Opcode, payload []byte) ([]byte, Status)
}

func (d *scriptedDevice) Execute(op Opcode, payload []byte) ([]byte, Status) {
	d.ops = append(d.ops, op)
	d.payloads = append(d.payloads, append([]byte(nil), payload...))
	if d.respond != nil {
		return d.respond(op, payload)
	}
	return nil, StatusOK
}

func TestHostConfigMethods(t *testing.T) {
	dev := &scriptedDevice{}
	h := NewHost(NewLoopback(dev))
	if err := h.SetConn(3, 9); err != nil {
		t.Fatal(err)
	}
	if err := h.SetIntInitial(1, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := h.SetMulGain(2, -0.5); err != nil {
		t.Fatal(err)
	}
	if err := h.SetDacConstant(0, 0.75); err != nil {
		t.Fatal(err)
	}
	if err := h.SetTimeout(4096); err != nil {
		t.Fatal(err)
	}
	if err := h.CfgCommit(); err != nil {
		t.Fatal(err)
	}
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
	if err := h.ExecStop(); err != nil {
		t.Fatal(err)
	}
	if err := h.SetAnaInputEn(1, true); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteParallel(0xAB); err != nil {
		t.Fatal(err)
	}
	wantOps := []Opcode{OpSetConn, OpSetIntInitial, OpSetMulGain, OpSetDacConstant,
		OpSetTimeout, OpCfgCommit, OpExecStart, OpExecStop, OpSetAnaInputEn, OpWriteParallel}
	if len(dev.ops) != len(wantOps) {
		t.Fatalf("device saw %d ops want %d", len(dev.ops), len(wantOps))
	}
	for i, op := range wantOps {
		if dev.ops[i] != op {
			t.Fatalf("op %d = %v want %v", i, dev.ops[i], op)
		}
	}
	// Spot-check payload encodings.
	if GetU16(dev.payloads[0], 0) != 3 || GetU16(dev.payloads[0], 2) != 9 {
		t.Fatalf("setConn payload %v", dev.payloads[0])
	}
	if GetU16(dev.payloads[1], 0) != 1 || GetF64(dev.payloads[1], 2) != 0.25 {
		t.Fatalf("setIntInitial payload %v", dev.payloads[1])
	}
	if GetU32(dev.payloads[4], 0) != 4096 {
		t.Fatalf("setTimeout payload %v", dev.payloads[4])
	}
	if dev.payloads[8][2] != 1 {
		t.Fatalf("setAnaInputEn payload %v", dev.payloads[8])
	}
	if dev.payloads[9][0] != 0xAB {
		t.Fatalf("writeParallel payload %v", dev.payloads[9])
	}
}

func TestHostSetFunction(t *testing.T) {
	dev := &scriptedDevice{}
	h := NewHost(NewLoopback(dev))
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	if err := h.SetFunction(5, table); err != nil {
		t.Fatal(err)
	}
	p := dev.payloads[0]
	if GetU16(p, 0) != 5 || len(p) != 2+256 || p[2+17] != 17 {
		t.Fatalf("setFunction payload wrong: len=%d", len(p))
	}
}

func TestHostDataReadback(t *testing.T) {
	dev := &scriptedDevice{respond: func(op Opcode, payload []byte) ([]byte, Status) {
		switch op {
		case OpInit:
			return PutU16(nil, 12), StatusOK
		case OpReadSerial:
			return []byte{10, 20, 30}, StatusOK
		case OpAnalogAvg:
			if GetU16(payload, 0) != 2 || GetU16(payload, 2) != 64 {
				return nil, StatusBadArgs
			}
			return PutF64(nil, 0.125), StatusOK
		case OpReadExp:
			return PackBits([]bool{false, true, true}), StatusOK
		}
		return nil, StatusOK
	}}
	h := NewHost(NewLoopback(dev))
	n, err := h.Init()
	if err != nil || n != 12 {
		t.Fatalf("Init=%d %v", n, err)
	}
	data, err := h.ReadSerial()
	if err != nil || !bytes.Equal(data, []byte{10, 20, 30}) {
		t.Fatalf("ReadSerial=%v %v", data, err)
	}
	avg, err := h.AnalogAvg(2, 64)
	if err != nil || avg != 0.125 {
		t.Fatalf("AnalogAvg=%v %v", avg, err)
	}
	exp, err := h.ReadExp()
	if err != nil {
		t.Fatal(err)
	}
	bits := UnpackBits(exp, 3)
	if bits[0] || !bits[1] || !bits[2] {
		t.Fatalf("exceptions %v", bits)
	}
}

func TestHostSurfacesDeviceErrors(t *testing.T) {
	dev := &scriptedDevice{respond: func(op Opcode, _ []byte) ([]byte, Status) {
		return nil, StatusNoUnit
	}}
	h := NewHost(NewLoopback(dev))
	err := h.SetMulGain(99, 1)
	var de *DeviceError
	if !errors.As(err, &de) || de.Status != StatusNoUnit || de.Op != OpSetMulGain {
		t.Fatalf("err=%v", err)
	}
	if de.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestHostShortResponses(t *testing.T) {
	dev := &scriptedDevice{respond: func(op Opcode, _ []byte) ([]byte, Status) {
		return []byte{1}, StatusOK // too short for Init and AnalogAvg
	}}
	h := NewHost(NewLoopback(dev))
	if _, err := h.Init(); err == nil {
		t.Fatal("short init response accepted")
	}
	if _, err := h.AnalogAvg(0, 1); err == nil {
		t.Fatal("short analogAvg response accepted")
	}
}

// failingTransport returns garbage or errors.
type failingTransport struct{ garbage bool }

func (f *failingTransport) Transact(frame []byte) ([]byte, error) {
	if f.garbage {
		return []byte{1, 2}, nil
	}
	return nil, errors.New("bus stuck low")
}

func TestHostTransportFailures(t *testing.T) {
	h := NewHost(&failingTransport{})
	if err := h.ExecStart(); err == nil {
		t.Fatal("transport error swallowed")
	}
	h = NewHost(&failingTransport{garbage: true})
	if err := h.ExecStart(); err == nil {
		t.Fatal("garbage response accepted")
	}
}

func TestLoopbackRejectsCorruptRequest(t *testing.T) {
	lb := NewLoopback(&scriptedDevice{})
	resp, err := lb.Transact([]byte{0xFF, 0xFF})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := DecodeResponse(resp)
	if err != nil || st == StatusOK {
		t.Fatalf("corrupt request got status %v", st)
	}
}

// Property: frames round-trip for arbitrary payloads.
func TestPropFrameRoundTrip(t *testing.T) {
	f := func(op byte, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		frame, err := EncodeFrame(Opcode(op), payload)
		if err != nil {
			return false
		}
		gotOp, gotPayload, err := DecodeFrame(frame)
		return err == nil && gotOp == Opcode(op) && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit corruption anywhere in a frame is always detected.
func TestPropSingleBitCorruptionDetected(t *testing.T) {
	f := func(payload []byte, pos uint16, bit uint8) bool {
		if len(payload) > 64 {
			payload = payload[:64]
		}
		frame, err := EncodeFrame(OpSetConn, payload)
		if err != nil {
			return false
		}
		bad := append([]byte(nil), frame...)
		i := int(pos) % len(bad)
		bad[i] ^= 1 << (bit % 8)
		_, _, err = DecodeFrame(bad)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// crc8Bitwise is the CRC-8/ATM definition (poly 0x07, init 0, no
// reflection, no final xor), one bit at a time: the table-driven crc8
// must agree with it on every input.
func crc8Bitwise(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC8MatchesBitwiseDefinition(t *testing.T) {
	if got := crc8([]byte("123456789")); got != 0xF4 {
		t.Fatalf(`crc8("123456789") = %#02x, want the CRC-8/ATM check value 0xf4`, got)
	}
	for b := 0; b < 256; b++ {
		if got, want := crc8([]byte{byte(b)}), crc8Bitwise([]byte{byte(b)}); got != want {
			t.Fatalf("crc8(%#02x) = %#02x, bitwise %#02x", b, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 259, 4096, MaxPayload + 4} {
		frame := make([]byte, n)
		rng.Read(frame)
		if got, want := crc8(frame), crc8Bitwise(frame); got != want {
			t.Fatalf("%d-byte frame: crc8 %#02x, bitwise %#02x", n, got, want)
		}
	}
}
