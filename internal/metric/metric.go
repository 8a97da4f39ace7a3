// Package metric is the daemon's one metrics primitive: a lock-free
// Counter, a fixed-bucket Histogram (HistogramVec keeps one per value of
// a label), and a Writer that renders them, and any gauge computed at
// scrape time, in the Prometheus text exposition format (version 0.0.4).
// Nothing else in the module knows that format.
package metric

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count, safe for concurrent use.
// The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the count.
func (c *Counter) Load() int64 { return c.v.Load() }

// LatencyBounds are the seconds buckets (1 ms to 10 s) of every
// request-scale latency histogram. Read-only.
var LatencyBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram counts observations into fixed buckets and keeps their sum.
// Observe is lock-free, and a concurrent reader sees every bucket count
// only grow.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Int64 // per bucket, not cumulative: len(bounds)+1
	sum    atomic.Uint64  // float64 bits of the sum of observed values
}

// NewHistogram returns an empty histogram with the given strictly
// increasing upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value. A value equal to a bound counts in that
// bound's bucket.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count is the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum is the sum of the observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramVec is one histogram per value of a single label, all with the
// same bounds. The label values are fixed at construction, so lookups
// need no lock.
type HistogramVec struct {
	key    string
	values []string
	hists  []*Histogram
}

// NewHistogramVec returns one empty histogram per label value, rendered
// in the order given.
func NewHistogramVec(key string, values []string, bounds ...float64) *HistogramVec {
	v := &HistogramVec{key: key, values: values, hists: make([]*Histogram, len(values))}
	for i := range values {
		v.hists[i] = NewHistogram(bounds...)
	}
	return v
}

// With returns the histogram for one label value, or nil when the value
// is not one of the vec's.
func (v *HistogramVec) With(value string) *Histogram {
	for i, x := range v.values {
		if x == value {
			return v.hists[i]
		}
	}
	return nil
}

// Series is one sample of a family labelled by a single key.
type Series struct {
	Label string // the key's value
	Value float64
}

// Writer renders metric families in the Prometheus text format. Each
// method writes one whole family under a single # HELP and # TYPE pair,
// so a family's samples are always contiguous. Integral sample values
// print as integers, others in Go's shortest 'g' form. Write errors are
// dropped: a scrape whose client has gone has no one to report them to.
type Writer struct{ out io.Writer }

// NewWriter returns a Writer that writes to out.
func NewWriter(out io.Writer) *Writer { return &Writer{out: out} }

// Counter writes an unlabelled counter family.
func (w *Writer) Counter(name, help string, v float64) {
	w.CounterVec(name, help, "", Series{Value: v})
}

// Gauge writes an unlabelled gauge family.
func (w *Writer) Gauge(name, help string, v float64) {
	w.GaugeVec(name, help, "", Series{Value: v})
}

// CounterVec writes a counter family with one sample per series, each
// labelled key="<series label>".
func (w *Writer) CounterVec(name, help, key string, series ...Series) {
	w.scalars(name, "counter", help, key, series)
}

// GaugeVec writes a gauge family with one sample per series, each
// labelled key="<series label>".
func (w *Writer) GaugeVec(name, help, key string, series ...Series) {
	w.scalars(name, "gauge", help, key, series)
}

// Histogram writes an unlabelled histogram family.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	w.header(name, "histogram", help)
	w.histogram(name, "", "", h)
}

// HistogramVec writes a histogram family with one histogram per label
// value.
func (w *Writer) HistogramVec(name, help string, v *HistogramVec) {
	w.header(name, "histogram", help)
	for i, h := range v.hists {
		w.histogram(name, v.key, v.values[i], h)
	}
}

func (w *Writer) scalars(name, typ, help, key string, series []Series) {
	w.header(name, typ, help)
	for _, s := range series {
		w.sample(name, s.Value, key, s.Label)
	}
}

// histogram renders cumulative buckets ending in le="+Inf", then _sum and
// _count. The buckets are loaded once, so +Inf always equals _count.
func (w *Writer) histogram(name, key, label string, h *Histogram) {
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		w.sample(name+"_bucket", float64(cum), key, label, "le", le)
	}
	w.sample(name+"_sum", h.Sum(), key, label)
	w.sample(name+"_count", float64(cum), key, label)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

func (w *Writer) header(name, typ, help string) {
	fmt.Fprintf(w.out, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, typ)
}

// sample writes one line, name{k="v",...} value, from key/value label
// pairs; a pair with an empty key is left out.
func (w *Writer) sample(name string, v float64, pairs ...string) {
	line := []byte(name)
	sep := byte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i] == "" {
			continue
		}
		line = fmt.Appendf(line, "%c%s=\"%s\"", sep, pairs[i], labelEscaper.Replace(pairs[i+1]))
		sep = ','
	}
	if sep == ',' {
		line = append(line, '}')
	}
	line = append(line, ' ')
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		line = strconv.AppendInt(line, int64(v), 10)
	} else {
		line = strconv.AppendFloat(line, v, 'g', -1, 64)
	}
	w.out.Write(append(line, '\n'))
}
