// Package admission is the serving boundary's overload defence. The
// source paper frames NLIDBs as interactive front ends to data — answers
// must arrive while the user is still engaged — and an interactive system
// under more demand than capacity has exactly two choices: shed the
// excess quickly, or let every request queue until all of them are late.
// This package implements the first choice as a Controller: a
// concurrency limiter with a bounded, deadline-aware FIFO wait queue
// (a request whose remaining deadline cannot survive the predicted queue
// delay is rejected immediately instead of queued to die), an adaptive
// admit limit driven by measured queue delay (AIMD on the limit with a
// CoDel-style target), and priority classes so interactive queries
// outlive batch traffic when the limit tightens. A separate per-client
// token-bucket RateLimiter caps any single caller's request rate before
// it ever reaches the queue.
package admission

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sync"

	"nlidb/internal/obs"
)

// Metric family names the controller publishes. Documented in the
// README's Overload protection section and asserted by
// `make overload-smoke`.
const (
	// MetricInFlight gauges the number of currently admitted requests.
	MetricInFlight = "nlidb_admission_inflight"
	// MetricLimit gauges the current adaptive admit limit.
	MetricLimit = "nlidb_admission_limit"
	// MetricQueueDepth gauges queued waiters by priority class.
	MetricQueueDepth = "nlidb_admission_queue_depth"
	// MetricQueueDelay is the histogram of time spent queued before
	// admission, by priority class (immediate admits observe 0).
	MetricQueueDelay = "nlidb_admission_queue_delay_seconds"
	// MetricAdmitted counts admitted requests by priority class.
	MetricAdmitted = "nlidb_admission_admitted_total"
	// MetricShed counts rejected requests by reason: "queue_full",
	// "deadline", "draining", "canceled" (caller gave up while queued) —
	// and, incremented by the HTTP server, "rate_limit".
	MetricShed = "nlidb_admission_shed_total"
)

// Rejection reasons, also used as the shed-counter label and the
// X-Shed-Reason response header.
var (
	// ErrQueueFull rejects a request because its class's wait queue is at
	// capacity — the system is saturated and honesty beats buffering.
	ErrQueueFull = errors.New("admission: wait queue full")
	// ErrDeadline rejects a request whose remaining deadline is smaller
	// than the predicted queue delay: it would wait, time out, and waste
	// the slot it finally got. Rejecting now lets the caller retry
	// elsewhere while its budget is still alive.
	ErrDeadline = errors.New("admission: deadline cannot survive queue delay")
	// ErrDraining rejects every request once StartDrain has been called.
	ErrDraining = errors.New("admission: draining")
)

// Priority classes order who survives when the admit limit tightens.
// Interactive waiters always dequeue before batch waiters, and batch gets
// a smaller wait queue, so under sustained overload batch traffic sheds
// first — the survey's interactive-latency requirement made load-bearing.
type Priority int

const (
	// Interactive is a user waiting at a prompt; the default.
	Interactive Priority = iota
	// Batch is throughput-oriented traffic that tolerates rejection.
	Batch
	numPriorities
)

// String names the class the way metrics label it.
func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority maps the wire form ("", "interactive", "batch") to a
// Priority; unknown strings are an error.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	default:
		return Interactive, fmt.Errorf("admission: unknown priority %q", s)
	}
}

// Config tunes a Controller. The zero value is serviceable: the admit
// limit starts (and is capped) at 2×GOMAXPROCS, the interactive queue
// holds 4× the limit, batch a quarter of that, the CoDel target delay is
// 5ms over 100ms windows, and adaptation is on.
type Config struct {
	// MaxInFlight is the admit-limit ceiling and its starting value
	// (default 2×GOMAXPROCS). The adaptive limit never exceeds it.
	MaxInFlight int
	// MinInFlight is the adaptive floor (default 1). Equal to MaxInFlight,
	// it freezes the admit limit; the queue, the deadline check, and the
	// priorities keep working.
	MinInFlight int
	// MaxQueue bounds the interactive wait queue (default 4×MaxInFlight).
	MaxQueue int
	// BatchQueue bounds the batch wait queue (default MaxQueue/4, min 1).
	BatchQueue int
	// TargetDelay is the CoDel-style queue-delay target: when the minimum
	// queue delay observed over a whole Window exceeds it, a standing
	// queue exists and the admit limit decreases multiplicatively
	// (default 5ms).
	TargetDelay time.Duration
	// Window is the adaptation interval (default 100ms).
	Window time.Duration
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
	// Metrics holds the controller's gauges, counters, and queue-delay
	// histograms; nil means a private registry. The series are resolved
	// at New, so scrapes see them before the first request.
	Metrics *obs.Registry
}

// Stats is a point-in-time view of the controller, for tests and the
// drain log line. Admitted and Shed read the registry series /metrics
// exports; controllers sharing one registry share those series, and so
// their counts.
type Stats struct {
	// Limit is the current adaptive admit limit.
	Limit int
	// InFlight is the number of currently admitted requests.
	InFlight int
	// Queued is the number of waiters per priority class.
	Queued [2]int
	// Admitted counts admitted requests, over both classes.
	Admitted int64
	// Shed counts the controller's own rejections by reason, listing only
	// reasons with a non-zero count (the server's rate-limit reasons are
	// not the controller's and stay out).
	Shed map[string]int64
}

// waiter is one queued request: granted by closing ready while holding
// the controller lock (granted=true), or abandoned by its own context.
type waiter struct {
	ready    chan struct{}
	enqueued time.Time
	class    Priority
	granted  bool
	drained  bool
}

// Controller is the admission gate in front of the serving pipeline. All
// methods are safe for concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	limit    int
	inflight int
	queues   [numPriorities]*list.List
	draining bool

	// ewmaService is the smoothed per-request service time (seconds),
	// fed by releases; it prices the queue for the deadline check.
	ewmaService float64

	// CoDel window state: the minimum delay of waiters dequeued this
	// window. Immediate admits do not count — only a waiter that actually
	// stood in line proves a standing queue.
	windowStart time.Time
	sawQueue    bool
	minDelay    time.Duration

	// Registry handles, resolved at New.
	inflightG  *obs.Gauge
	limitG     *obs.Gauge
	queueDepth [numPriorities]*obs.Gauge
	queueDelay [numPriorities]*obs.Histogram
	admitted   [numPriorities]*obs.Counter
	shed       map[string]*obs.Counter // by shedReasons
}

// shedReasons are the controller's own rejection reasons; the server adds
// "rate_limit" to the same family.
var shedReasons = []string{"queue_full", "deadline", "draining", "canceled"}

// New builds a Controller. Config zero values are filled with defaults.
func New(cfg Config) *Controller {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MinInFlight <= 0 {
		cfg.MinInFlight = 1
	}
	if cfg.MinInFlight > cfg.MaxInFlight {
		cfg.MinInFlight = cfg.MaxInFlight
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.BatchQueue <= 0 {
		cfg.BatchQueue = cfg.MaxQueue / 4
		if cfg.BatchQueue < 1 {
			cfg.BatchQueue = 1
		}
	}
	if cfg.TargetDelay <= 0 {
		cfg.TargetDelay = 5 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 100 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := obs.OrNew(cfg.Metrics)
	c := &Controller{
		cfg:       cfg,
		limit:     cfg.MaxInFlight,
		inflightG: m.Gauge(MetricInFlight),
		limitG:    m.Gauge(MetricLimit),
		shed:      map[string]*obs.Counter{},
	}
	c.inflightG.Set(0)
	c.limitG.Set(int64(c.limit))
	for p := Interactive; p < numPriorities; p++ {
		c.queues[p] = list.New()
		c.queueDepth[p] = m.Gauge(MetricQueueDepth, "class", p.String())
		c.queueDepth[p].Set(0)
		c.queueDelay[p] = m.Histogram(MetricQueueDelay, "class", p.String())
		c.admitted[p] = m.Counter(MetricAdmitted, "class", p.String())
	}
	for _, reason := range shedReasons {
		c.shed[reason] = m.Counter(MetricShed, "reason", reason)
	}
	m.Counter(MetricShed, "reason", "rate_limit") // the server's, visible from the start
	return c
}

// Limit reports the current adaptive admit limit.
func (c *Controller) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Limit:    c.limit,
		InFlight: c.inflight,
		Shed:     map[string]int64{},
	}
	for p := Interactive; p < numPriorities; p++ {
		s.Queued[p] = c.queues[p].Len()
		s.Admitted += c.admitted[p].Value()
	}
	for reason, n := range c.shed {
		if v := n.Value(); v > 0 {
			s.Shed[reason] = v
		}
	}
	return s
}

// RetryAfterHint is the controller's advice for a shed request's
// Retry-After: roughly the time for the current backlog to clear, never
// below one second (whole seconds are what the header can carry).
func (c *Controller) RetryAfterHint() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.backlogDelayLocked(c.queues[Interactive].Len() + c.queues[Batch].Len())
	if d < time.Second {
		return time.Second
	}
	return d.Round(time.Second)
}

// backlogDelayLocked predicts how long a waiter behind `ahead` requests
// will stand in line: ahead service times spread over limit slots. Zero
// when no service-time sample exists yet.
func (c *Controller) backlogDelayLocked(ahead int) time.Duration {
	if c.ewmaService <= 0 || c.limit <= 0 {
		return 0
	}
	perSlot := float64(ahead+1) / float64(c.limit)
	return time.Duration(perSlot * c.ewmaService * float64(time.Second))
}

// Acquire admits the request, queues it, or rejects it. On admission it
// returns a release function that MUST be called exactly once when the
// request's work is done — release frees the slot, feeds the service-time
// estimate, and hands the slot to the next queued waiter. On rejection
// the error is ErrQueueFull, ErrDeadline, ErrDraining, or the context's
// own error if the caller's deadline expired while queued.
//
// The request's class decides both its queue (interactive waiters always
// dequeue first) and its queue capacity (batch queues are smaller), so
// when the adaptive limit tightens, batch traffic sheds first.
func (c *Controller) Acquire(ctx context.Context, class Priority) (release func(), err error) {
	if class < 0 || class >= numPriorities {
		class = Interactive
	}
	c.mu.Lock()
	now := c.cfg.Now()
	c.adaptLocked(now)
	if c.draining {
		c.shed["draining"].Inc()
		c.mu.Unlock()
		return nil, ErrDraining
	}
	// Immediate admission: a free slot and nobody of the same or higher
	// priority already waiting (queue order is preserved).
	if c.inflight < c.limit && c.aheadOfLocked(class) == 0 {
		c.admitLocked(class, 0)
		c.mu.Unlock()
		return c.releaseFunc(now), nil
	}

	// Queue — bounded per class.
	max := c.cfg.MaxQueue
	if class == Batch {
		max = c.cfg.BatchQueue
	}
	if c.queues[class].Len() >= max {
		c.shed["queue_full"].Inc()
		c.mu.Unlock()
		return nil, ErrQueueFull
	}
	// Deadline-aware rejection: if the predicted queue delay (plus one
	// service time to actually run) exceeds the request's remaining
	// budget, it cannot finish — reject now, while the caller can still
	// spend the budget elsewhere.
	if dl, ok := ctx.Deadline(); ok && c.ewmaService > 0 {
		est := c.backlogDelayLocked(c.aheadOfLocked(class))
		est += time.Duration(c.ewmaService * float64(time.Second))
		if now.Add(est).After(dl) {
			c.shed["deadline"].Inc()
			c.mu.Unlock()
			return nil, fmt.Errorf("%w (predicted %s, remaining %s)",
				ErrDeadline, est.Round(time.Microsecond), dl.Sub(now).Round(time.Microsecond))
		}
	}
	w := &waiter{ready: make(chan struct{}), enqueued: now, class: class}
	el := c.queues[class].PushBack(w)
	c.gaugeQueuesLocked()
	c.mu.Unlock()

	select {
	case <-w.ready:
		// granted was written before ready was closed (both under the
		// lock), so this read is ordered by the channel close. A close
		// without a grant is StartDrain flushing the queue.
		if !w.granted {
			return nil, ErrDraining
		}
		return c.releaseFunc(c.cfg.Now()), nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; the slot is ours, so take
			// it — the caller's next ctx check will unwind it cleanly.
			c.mu.Unlock()
			return c.releaseFunc(c.cfg.Now()), nil
		}
		if w.drained {
			// StartDrain already flushed (and counted) this waiter.
			c.mu.Unlock()
			return nil, ErrDraining
		}
		c.queues[class].Remove(el)
		c.shed["canceled"].Inc()
		c.gaugeQueuesLocked()
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// aheadOfLocked counts waiters that would be served before a new arrival
// of the given class: everyone in its own queue plus, for batch, every
// queued interactive waiter.
func (c *Controller) aheadOfLocked(class Priority) int {
	n := c.queues[class].Len()
	if class == Batch {
		n += c.queues[Interactive].Len()
	}
	return n
}

// admitLocked books one admission with the given queue delay.
func (c *Controller) admitLocked(class Priority, waited time.Duration) {
	c.inflight++
	c.inflightG.Set(int64(c.inflight))
	c.admitted[class].Inc()
	c.queueDelay[class].Observe(waited.Seconds())
}

// releaseFunc builds the once-only release closure for a slot admitted at
// admitTime.
func (c *Controller) releaseFunc(admitTime time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			now := c.cfg.Now()
			c.inflight--
			if svc := now.Sub(admitTime).Seconds(); svc >= 0 {
				if c.ewmaService == 0 {
					c.ewmaService = svc
				} else {
					c.ewmaService = 0.8*c.ewmaService + 0.2*svc
				}
			}
			// Hand freed capacity to the line: interactive first, FIFO
			// within a class.
			for c.inflight < c.limit {
				w := c.popLocked()
				if w == nil {
					break
				}
				waited := now.Sub(w.enqueued)
				if !c.sawQueue || waited < c.minDelay {
					c.minDelay = waited
				}
				c.sawQueue = true
				w.granted = true
				c.admitLocked(w.class, waited)
				close(w.ready)
			}
			c.adaptLocked(now)
			c.inflightG.Set(int64(c.inflight))
			c.gaugeQueuesLocked()
			c.mu.Unlock()
		})
	}
}

// popLocked removes and returns the next waiter to serve (nil when both
// queues are empty).
func (c *Controller) popLocked() *waiter {
	for p := Interactive; p < numPriorities; p++ {
		if el := c.queues[p].Front(); el != nil {
			c.queues[p].Remove(el)
			return el.Value.(*waiter)
		}
	}
	return nil
}

// adaptLocked runs the AIMD window: when a whole window's minimum queue
// delay stayed above target, a standing queue exists — decrease the limit
// multiplicatively; otherwise probe upward additively toward the ceiling.
func (c *Controller) adaptLocked(now time.Time) {
	if c.windowStart.IsZero() {
		c.windowStart = now
		return
	}
	if now.Sub(c.windowStart) < c.cfg.Window {
		return
	}
	if c.sawQueue && c.minDelay > c.cfg.TargetDelay {
		dec := c.limit / 8
		if dec < 1 {
			dec = 1
		}
		c.limit -= dec
		if c.limit < c.cfg.MinInFlight {
			c.limit = c.cfg.MinInFlight
		}
	} else if c.limit < c.cfg.MaxInFlight {
		c.limit++
	}
	c.sawQueue = false
	c.minDelay = 0
	c.windowStart = now
	c.limitG.Set(int64(c.limit))
}

// StartDrain flips the controller into drain mode: every future Acquire
// is rejected with ErrDraining, and every currently queued waiter is
// flushed with the same rejection (queued work has not started; the point
// of draining is to finish what has). In-flight slots are untouched —
// their releases still run. Idempotent.
func (c *Controller) StartDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	for {
		w := c.popLocked()
		if w == nil {
			break
		}
		// granted stays false: the waiter's Acquire sees ready closed
		// without a grant and must treat it as a drain rejection.
		w.drained = true
		close(w.ready)
		c.shed["draining"].Inc()
	}
	c.gaugeQueuesLocked()
}

// Draining reports whether StartDrain has been called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

func (c *Controller) gaugeQueuesLocked() {
	for p := Interactive; p < numPriorities; p++ {
		c.queueDepth[p].Set(int64(c.queues[p].Len()))
	}
}
