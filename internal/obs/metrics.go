package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families a Registry holds.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a settable instantaneous value.
	KindGauge
	// KindHistogram is a distribution with exact reservoir quantiles.
	KindHistogram
)

// String names the kind the way the Prometheus dump prints it.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// defaultReservoir bounds histogram memory: quantiles are exact until a
// histogram has seen more observations than this, then degrade gracefully
// to uniform-reservoir estimates (Vitter's algorithm R).
const defaultReservoir = 2048

// Histogram tracks a distribution: count, sum, min, max, and a bounded
// uniform reservoir from which Quantile computes exact nearest-rank
// percentiles of the sample. Safe for concurrent use.
type Histogram struct {
	mu        sync.Mutex
	count     int64
	sum       float64
	min, max  float64
	reservoir []float64
	rnd       *rand.Rand // made when the reservoir first overflows
}

func newHistogram() *Histogram {
	return &Histogram{reservoir: make([]float64, 0, 64)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.reservoir) < defaultReservoir {
		h.reservoir = append(h.reservoir, v)
		return
	}
	if h.rnd == nil {
		// Seeded deterministically so replays produce identical dumps, and
		// only here: seeding fills a 607-word table, and most histograms
		// never overflow.
		h.rnd = rand.New(rand.NewSource(1))
	}
	if j := h.rnd.Int63n(h.count); j < defaultReservoir {
		h.reservoir[j] = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) of the
// reservoir sample: exact while the histogram has seen no more
// observations than the reservoir holds. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	sample := append([]float64(nil), h.reservoir...)
	h.mu.Unlock()
	if len(sample) == 0 {
		return 0
	}
	sort.Float64s(sample)
	idx := int(math.Ceil(q*float64(len(sample)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sample) {
		idx = len(sample) - 1
	}
	return sample[idx]
}

// quantiles the Prometheus summary dump reports.
var dumpQuantiles = []float64{0.5, 0.95, 0.99}

// family is one named metric with its labeled series.
type family struct {
	name   string
	kind   Kind
	mu     sync.Mutex
	series map[string]any // label string → *Counter | *Gauge | *Histogram
}

// Registry holds metric families by name. All methods are safe for
// concurrent use. Counter/Gauge/Histogram get-or-create their series; a
// lookup serializes and sorts its labels, so a component resolves the
// handles it updates once, at construction, and touches only those on
// its request path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// OrNew returns r, or a new registry when r is nil: the private registry
// a component counts into when its caller passes none.
func OrNew(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return NewRegistry()
}

// labelKey serializes label pairs in sorted-key order, Prometheus style:
// `engine="athena",outcome="ok"`. Panics on an odd pair count — that is a
// programming error at the call site, not a runtime condition.
func labelKey(labels []string) string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	var sb strings.Builder
	for i, j := range idx {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", labels[2*j], labels[2*j+1])
	}
	return sb.String()
}

func (r *Registry) family(name string, kind Kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, series: map[string]any{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for name and label pairs (k1, v1, k2, v2…),
// creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	f := r.family(name, KindCounter)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// Gauge returns the gauge for name and label pairs, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	f := r.family(name, KindGauge)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	return g
}

// Histogram returns the histogram for name and label pairs, creating it
// on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	f := r.family(name, KindHistogram)
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Histogram)
	}
	h := newHistogram()
	f.series[key] = h
	return h
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries snapshots one family's series in label order.
func (f *family) sortedSeries() []struct {
	key string
	m   any
} {
	f.mu.Lock()
	out := make([]struct {
		key string
		m   any
	}, 0, len(f.series))
	for k, m := range f.series {
		out = append(out, struct {
			key string
			m   any
		}{k, m})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// WritePrometheus dumps every metric in the Prometheus text exposition
// format (histograms as summaries with exact reservoir quantiles).
func (r *Registry) WritePrometheus(w io.Writer) {
	withLabels := func(name, key, extra string) string {
		all := key
		if extra != "" {
			if all != "" {
				all += ","
			}
			all += extra
		}
		if all == "" {
			return name
		}
		return name + "{" + all + "}"
	}
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sortedSeries() {
			switch m := s.m.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s %d\n", withLabels(f.name, s.key, ""), m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s %d\n", withLabels(f.name, s.key, ""), m.Value())
			case *Histogram:
				for _, q := range dumpQuantiles {
					fmt.Fprintf(w, "%s %g\n",
						withLabels(f.name, s.key, fmt.Sprintf("quantile=%q", fmt.Sprint(q))), m.Quantile(q))
				}
				fmt.Fprintf(w, "%s %g\n", withLabels(f.name+"_sum", s.key, ""), m.Sum())
				fmt.Fprintf(w, "%s %d\n", withLabels(f.name+"_count", s.key, ""), m.Count())
			}
		}
	}
}

// Snapshot returns the registry as nested plain maps — the expvar
// rendering, also handy for tests and JSON dumps.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, f := range r.sortedFamilies() {
		fam := map[string]any{}
		for _, s := range f.sortedSeries() {
			key := s.key
			if key == "" {
				key = "_"
			}
			switch m := s.m.(type) {
			case *Counter:
				fam[key] = m.Value()
			case *Gauge:
				fam[key] = m.Value()
			case *Histogram:
				fam[key] = map[string]any{
					"count": m.Count(), "sum": m.Sum(),
					"p50": m.Quantile(0.5), "p95": m.Quantile(0.95), "p99": m.Quantile(0.99),
				}
			}
		}
		out[f.name] = fam
	}
	return out
}

// publishMu guards the expvar namespace check (expvar.Publish panics on
// duplicate names).
var publishMu sync.Mutex

// PublishExpvar exposes the registry under name in the process-wide
// expvar namespace (and thus on /debug/vars). Safe to call repeatedly.
func (r *Registry) PublishExpvar(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) == nil {
		expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	}
}
