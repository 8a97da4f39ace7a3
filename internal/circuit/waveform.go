package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// Waveform analysis: measurements a bench engineer makes on captured
// probe traces — settling time, overshoot, steady state — used by the
// examples, the alasim tool, and tests that validate dynamic behaviour
// (e.g. that an 80 kHz chip settles 4× faster than the 20 kHz prototype).

// SteadyState estimates the final value of a captured waveform as the mean
// of its last `tail` samples (minimum 1).
func (p *Probe) SteadyState(tail int) (float64, error) {
	if len(p.Vals) == 0 {
		return 0, fmt.Errorf("circuit: probe on net %d captured nothing", p.Net)
	}
	if tail <= 0 {
		tail = 1
	}
	if tail > len(p.Vals) {
		tail = len(p.Vals)
	}
	var sum float64
	for _, v := range p.Vals[len(p.Vals)-tail:] {
		sum += v
	}
	return sum / float64(tail), nil
}

// SettlingTime returns the earliest captured time after which the waveform
// stays within ±band of its steady state. It returns an error when the
// trace never settles into the band.
func (p *Probe) SettlingTime(band float64) (float64, error) {
	if len(p.Vals) == 0 {
		return 0, fmt.Errorf("circuit: probe on net %d captured nothing", p.Net)
	}
	final, err := p.SteadyState(max(1, len(p.Vals)/16))
	if err != nil {
		return 0, err
	}
	// Walk backward to the last sample outside the band.
	lastOutside := -1
	for i := len(p.Vals) - 1; i >= 0; i-- {
		if math.Abs(p.Vals[i]-final) > band {
			lastOutside = i
			break
		}
	}
	// Settled means a meaningful stretch of the tail stayed in the band,
	// not merely the final sample (which trivially matches a 1-sample
	// steady-state estimate).
	minTail := max(2, len(p.Vals)/16)
	if lastOutside > len(p.Vals)-1-minTail {
		return 0, fmt.Errorf("circuit: waveform on net %d not settled within ±%v", p.Net, band)
	}
	return p.Times[lastOutside+1], nil
}

// Overshoot returns the maximum excursion beyond the steady state, signed
// toward the direction of travel: positive values mean the waveform
// crossed past its final value. Zero for monotone first-order settling.
func (p *Probe) Overshoot() (float64, error) {
	if len(p.Vals) < 2 {
		return 0, fmt.Errorf("circuit: probe on net %d captured too little", p.Net)
	}
	final, err := p.SteadyState(max(1, len(p.Vals)/16))
	if err != nil {
		return 0, err
	}
	start := p.Vals[0]
	dir := 1.0
	if final < start {
		dir = -1
	}
	var worst float64
	for _, v := range p.Vals {
		if exc := dir * (v - final); exc > worst {
			worst = exc
		}
	}
	return worst, nil
}

// PeakToPeak returns max − min over the capture.
func (p *Probe) PeakToPeak() (float64, error) {
	if len(p.Vals) == 0 {
		return 0, fmt.Errorf("circuit: probe on net %d captured nothing", p.Net)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range p.Vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo, nil
}

// WriteCSV emits the capture as time,value rows with a header.
func (p *Probe) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "time_s,net%d\n", p.Net); err != nil {
		return err
	}
	for i, t := range p.Times {
		if _, err := fmt.Fprintf(bw, "%.9g,%.9g\n", t, p.Vals[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
