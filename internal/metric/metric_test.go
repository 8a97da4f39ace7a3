package metric

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWriterFormat(t *testing.T) {
	h := NewHistogram(1, 2.5, 1048576)
	for _, v := range []float64{0.5, 1, 2, 3e6} {
		h.Observe(v)
	}
	d := NewHistogram(LatencyBounds...)
	d.ObserveDuration(1500 * time.Microsecond)
	v := NewHistogramVec("route", []string{"a", "b"}, 10)
	v.With("b").Observe(7)
	if v.With("c") != nil {
		t.Fatal("With returned a histogram for an unknown label value")
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Counter("x_total", "Things.\nMore.", 3)
	w.Gauge("x_seconds", `A \ gauge.`, 0.25)
	w.GaugeVec("x_state", "By state.", "state", Series{"a\"b\\c\nd", 1}, Series{"e", 2e6})
	w.CounterVec("x_empty_total", "No samples yet.", "backend")
	w.Histogram("x_hist", "Values.", h)
	w.HistogramVec("x_vec", "Per route.", v)
	want := `# HELP x_total Things.\nMore.
# TYPE x_total counter
x_total 3
# HELP x_seconds A \\ gauge.
# TYPE x_seconds gauge
x_seconds 0.25
# HELP x_state By state.
# TYPE x_state gauge
x_state{state="a\"b\\c\nd"} 1
x_state{state="e"} 2000000
# HELP x_empty_total No samples yet.
# TYPE x_empty_total counter
# HELP x_hist Values.
# TYPE x_hist histogram
x_hist_bucket{le="1"} 2
x_hist_bucket{le="2.5"} 3
x_hist_bucket{le="1.048576e+06"} 3
x_hist_bucket{le="+Inf"} 4
x_hist_sum 3.0000035e+06
x_hist_count 4
# HELP x_vec Per route.
# TYPE x_vec histogram
x_vec_bucket{route="a",le="10"} 0
x_vec_bucket{route="a",le="+Inf"} 0
x_vec_sum{route="a"} 0
x_vec_count{route="a"} 0
x_vec_bucket{route="b",le="10"} 1
x_vec_bucket{route="b",le="+Inf"} 1
x_vec_sum{route="b"} 7
x_vec_count{route="b"} 1
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if d.Count() != 1 || d.Sum() != 0.0015 {
		t.Fatalf("duration histogram: count %d sum %v, want 1 and 0.0015", d.Count(), d.Sum())
	}
	if d.counts[1].Load() != 1 {
		t.Fatal("1.5 ms did not land in the le=0.0025 bucket")
	}
}

// seriesKey names the histogram series a bucket or _count sample belongs
// to: h_bucket{route="x",le="1"} and h_count{route="x"} both key h{route="x"}.
func seriesKey(name string) string {
	base, labels, _ := strings.Cut(name, "{")
	var keep []string
	for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		if kv != "" && !strings.HasPrefix(kv, "le=") {
			keep = append(keep, kv)
		}
	}
	return strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_count") + "{" + strings.Join(keep, ",") + "}"
}

// Observers race a renderer: every render must show cumulative buckets
// that never decrease from one render to the next, with +Inf equal to
// _count, and the final counts and sums must be exact.
func TestConcurrentObserveWhileRendering(t *testing.T) {
	const workers, perWorker = 4, 50000
	h := NewHistogram(1, 2, 4, 8, 16)
	v := NewHistogramVec("route", []string{"x", "y"}, 1, 2, 4, 8, 16)
	var c Counter

	started, stop := make(chan struct{}), make(chan struct{})
	renderErr := make(chan string, 1)
	renders := 0
	go func() {
		defer close(renderErr)
		last := map[string]int64{}
		for {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.Histogram("h", "", h)
			w.HistogramVec("v", "", v)
			if renders++; renders == 1 {
				close(started)
			}
			inf := map[string]int64{}
			for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				name, val, _ := strings.Cut(line, " ")
				n, _ := strconv.ParseInt(val, 10, 64)
				switch {
				case strings.Contains(name, "_bucket"):
					if n < last[name] {
						renderErr <- fmt.Sprintf("%s fell from %d to %d", name, last[name], n)
						return
					}
					last[name] = n
					if strings.Contains(name, `le="+Inf"`) {
						inf[seriesKey(name)] = n
					}
				case strings.Contains(name, "_count"):
					if inf[seriesKey(name)] != n {
						renderErr <- fmt.Sprintf("%s is %d, +Inf bucket %d", name, n, inf[seriesKey(name)])
						return
					}
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// The observers start together once the renderer is running.
	begin := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-begin
			for i := 0; i < perWorker; i++ {
				val := float64((g + i) % 20)
				h.Observe(val)
				v.With([]string{"x", "y"}[i%2]).Observe(val)
				c.Inc()
			}
		}(g)
	}
	<-started
	close(begin)
	wg.Wait()
	close(stop)
	if msg, ok := <-renderErr; ok {
		t.Fatal(msg)
	}
	t.Logf("%d renders", renders)

	// Integer observations keep every partial float sum exact, so the
	// order the CAS loop applies them in cannot change the total.
	var wantSum float64
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			wantSum += float64((g + i) % 20)
		}
	}
	const total = workers * perWorker
	if h.Count() != total || h.Sum() != wantSum {
		t.Fatalf("histogram count %d sum %v, want %d and %v", h.Count(), h.Sum(), total, wantSum)
	}
	x, y := v.With("x"), v.With("y")
	if x.Count()+y.Count() != total || x.Sum()+y.Sum() != wantSum {
		t.Fatalf("vec counts %d+%d sums %v+%v, want %d and %v", x.Count(), y.Count(), x.Sum(), y.Sum(), total, wantSum)
	}
	if c.Load() != total {
		t.Fatalf("counter %d, want %d", c.Load(), total)
	}
}
