package admission

import (
	"context"
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlidb/internal/obs"
)

// fakeClock is a mutex-guarded manual clock for deterministic tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(0, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAcquireReleaseImmediate(t *testing.T) {
	c := New(Config{MaxInFlight: 2, MinInFlight: 2})
	rel1, err := c.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := c.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.InFlight != 2 || s.Admitted != 2 {
		t.Fatalf("stats %+v, want 2 in flight, 2 admitted", s)
	}
	rel1()
	rel1() // release must be once-only
	rel2()
	if s := c.Stats(); s.InFlight != 0 {
		t.Fatalf("in flight %d after releases, want 0", s.InFlight)
	}
}

func TestQueueFIFOAndHandoff(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MinInFlight: 1, MaxQueue: 8})
	rel, err := c.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Acquire(context.Background(), Interactive)
			if err != nil {
				t.Errorf("waiter %d rejected: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			r()
		}(i)
		// Serialize enqueue order so FIFO is observable.
		waitFor(t, func() bool { return c.Stats().Queued[Interactive] == i+1 })
	}
	rel()
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("dequeue order %v, want [0 1 2]", order)
	}
}

func TestQueueFullSheds(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MinInFlight: 1, MaxQueue: 1})
	rel, _ := c.Acquire(context.Background(), Interactive)
	defer rel()
	queued := make(chan struct{})
	go func() {
		r, err := c.Acquire(context.Background(), Interactive)
		if err == nil {
			defer r()
		}
		close(queued)
	}()
	waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 1 })
	if _, err := c.Acquire(context.Background(), Interactive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err %v, want ErrQueueFull", err)
	}
	if got := c.Stats().Shed["queue_full"]; got != 1 {
		t.Fatalf("queue_full sheds %d, want 1", got)
	}
	rel()
	<-queued
}

// TestDeadlineDoomedRejectedImmediately is the tentpole's headline
// behaviour: a request whose remaining deadline cannot survive the
// predicted queue delay is rejected at the door, not queued to die.
func TestDeadlineDoomedRejectedImmediately(t *testing.T) {
	clock := newFakeClock()
	c := New(Config{MaxInFlight: 1, MinInFlight: 1, MaxQueue: 64, Now: clock.Now})

	// Teach the controller its service time: one 100ms request.
	rel, err := c.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(100 * time.Millisecond)
	rel()

	// Occupy the only slot and stack a queue behind it.
	relHold, err := c.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	defer relHold()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := c.Acquire(context.Background(), Interactive); err == nil {
				<-done
				r()
			}
		}()
	}
	waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 4 })

	// 4 waiters ahead at ~100ms each on one slot: predicted wait ≈ 500ms
	// (incl. own service). A 50ms deadline cannot survive that.
	ctx, cancel := context.WithDeadline(context.Background(), clock.Now().Add(50*time.Millisecond))
	defer cancel()
	if _, err := c.Acquire(ctx, Interactive); !errors.Is(err, ErrDeadline) {
		t.Fatalf("doomed request got %v, want ErrDeadline", err)
	}
	if got := c.Stats().Shed["deadline"]; got != 1 {
		t.Fatalf("deadline sheds %d, want 1", got)
	}
	// An ample deadline queues instead of shedding. (Real-clock timeout:
	// the context machinery fires on wall time even though the controller
	// prices the queue with the fake clock.)
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	accepted := make(chan error, 1)
	go func() {
		r, err := c.Acquire(ctx2, Interactive)
		if err == nil {
			r()
		}
		accepted <- err
	}()
	waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 5 })
	close(done)
	relHold()
	wg.Wait()
	if err := <-accepted; err != nil {
		t.Fatalf("well-budgeted request rejected: %v", err)
	}
}

func TestCanceledWhileQueued(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MinInFlight: 1, MaxQueue: 4})
	rel, _ := c.Acquire(context.Background(), Interactive)
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, Interactive)
		errCh <- err
	}()
	waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if s := c.Stats(); s.Queued[Interactive] != 0 || s.Shed["canceled"] != 1 {
		t.Fatalf("stats after cancel: %+v", s)
	}
}

// TestInteractiveOutlivesBatch checks both priority properties: batch has
// the smaller queue, and interactive waiters dequeue first even when the
// batch waiter arrived earlier.
func TestInteractiveOutlivesBatch(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MinInFlight: 1, MaxQueue: 8, BatchQueue: 1})
	rel, _ := c.Acquire(context.Background(), Interactive)

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	enqueue := func(name string, p Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Acquire(context.Background(), p)
			if err != nil {
				t.Errorf("%s rejected: %v", name, err)
				return
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			r()
		}()
	}
	enqueue("batch", Batch)
	waitFor(t, func() bool { return c.Stats().Queued[Batch] == 1 })
	enqueue("interactive", Interactive)
	waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 1 })

	// Batch queue is full (cap 1): the next batch arrival sheds while
	// interactive still queues.
	if _, err := c.Acquire(context.Background(), Batch); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second batch got %v, want ErrQueueFull", err)
	}

	rel()
	wg.Wait()
	if len(order) != 2 || order[0] != "interactive" || order[1] != "batch" {
		t.Fatalf("service order %v, want interactive before batch", order)
	}
}

// TestAIMDDecreasesUnderStandingQueueAndRecovers drives the adaptive
// limit with a fake clock: a standing queue above the target delay
// shrinks the limit multiplicatively; quiet windows grow it back.
func TestAIMDDecreasesUnderStandingQueueAndRecovers(t *testing.T) {
	clock := newFakeClock()
	c := New(Config{
		MaxInFlight: 16, MinInFlight: 1, MaxQueue: 64,
		TargetDelay: time.Millisecond, Window: 10 * time.Millisecond, Now: clock.Now,
	})
	if c.Limit() != 16 {
		t.Fatalf("initial limit %d, want 16", c.Limit())
	}

	// Fill every slot, then queue a waiter and hold it well past the
	// target delay before releasing a slot — a standing queue.
	rels := make([]func(), 0, 16)
	for i := 0; i < 16; i++ {
		r, err := c.Acquire(context.Background(), Interactive)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	granted := make(chan struct{})
	go func() {
		r, err := c.Acquire(context.Background(), Interactive)
		if err == nil {
			r()
		}
		close(granted)
	}()
	waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 1 })

	// The waiter has stood in line 20ms > target when a slot frees; the
	// same release closes the 10ms window, so the AIMD decrease fires:
	// 16 - 16/8 = 14.
	clock.Advance(20 * time.Millisecond)
	rels[0]()
	<-granted
	if got := c.Limit(); got != 14 {
		t.Fatalf("limit after standing-queue window %d, want 14", got)
	}

	// Quiet windows: additive recovery, one per window.
	clock.Advance(20 * time.Millisecond)
	rels[1]()
	clock.Advance(20 * time.Millisecond)
	rels[2]()
	if got := c.Limit(); got != 16 {
		t.Fatalf("limit after recovery windows %d, want back at 16", got)
	}
	for _, r := range rels[3:] {
		r()
	}
}

// TestMinEqualMaxPinsLimit: with the floor at the ceiling, a window that
// would cut the limit leaves it where it is.
func TestMinEqualMaxPinsLimit(t *testing.T) {
	clock := newFakeClock()
	c := New(Config{
		MaxInFlight: 2, MinInFlight: 2,
		TargetDelay: time.Millisecond, Window: 10 * time.Millisecond, Now: clock.Now,
	})
	r1, _ := c.Acquire(context.Background(), Interactive)
	r2, _ := c.Acquire(context.Background(), Interactive)
	granted := make(chan struct{})
	go func() {
		if r, err := c.Acquire(context.Background(), Interactive); err == nil {
			r()
		}
		close(granted)
	}()
	waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 1 })
	clock.Advance(20 * time.Millisecond)
	r1()
	<-granted
	if got := c.Limit(); got != 2 {
		t.Fatalf("limit after standing-queue window %d, want 2", got)
	}
	r2()
}

func TestStartDrainRejectsAndFlushes(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MinInFlight: 1, MaxQueue: 4})
	rel, _ := c.Acquire(context.Background(), Interactive)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Acquire(context.Background(), Interactive)
		errCh <- err
	}()
	waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 1 })

	c.StartDrain()
	if err := <-errCh; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter got %v, want ErrDraining", err)
	}
	if _, err := c.Acquire(context.Background(), Interactive); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain acquire got %v, want ErrDraining", err)
	}
	rel() // in-flight release still works after drain
	if s := c.Stats(); s.InFlight != 0 || s.Shed["draining"] != 2 {
		t.Fatalf("stats after drain: %+v", s)
	}
}

// TestAcquireConcurrentNeverExceedsLimit hammers the controller from many
// goroutines (run under -race by `make test`) and asserts the limit is a
// hard bound.
func TestAcquireConcurrentNeverExceedsLimit(t *testing.T) {
	c := New(Config{MaxInFlight: 4, MinInFlight: 4, MaxQueue: 256})
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := c.Acquire(context.Background(), Interactive)
			if err != nil {
				t.Errorf("acquire failed: %v", err)
				return
			}
			cur := inflight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			inflight.Add(-1)
			rel()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak concurrency %d exceeds limit 4", p)
	}
	if s := c.Stats(); s.Admitted != 64 || s.InFlight != 0 {
		t.Fatalf("final stats %+v, want 64 admitted, 0 in flight", s)
	}
}

func TestParsePriority(t *testing.T) {
	for s, want := range map[string]Priority{"": Interactive, "interactive": Interactive, "batch": Batch} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePriority("bulk"); err == nil {
		t.Error("ParsePriority(bulk) should error")
	}
}

// waitFor polls cond (with a real-time cap) — used to sequence goroutines
// against controller state without sleeping fixed amounts.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestRegistryAddsNoAllocations: Acquire plus release allocates the same
// with a caller's registry as with the controller's private one. The
// series are handles resolved at New; a per-call registry lookup would
// allocate its label key, under the controller's lock, every time.
func TestRegistryAddsNoAllocations(t *testing.T) {
	allocs := func(reg *obs.Registry) float64 {
		c := New(Config{MaxInFlight: 4, Metrics: reg})
		ctx := context.Background()
		return testing.AllocsPerRun(100, func() {
			if rel, err := c.Acquire(ctx, Interactive); err == nil {
				rel()
			}
		})
	}
	if priv, shared := allocs(nil), allocs(obs.NewRegistry()); shared != priv {
		t.Fatalf("Acquire+release allocs: %v with a registry, %v with the private one", shared, priv)
	}
}

// TestStatsAgreeWithRegistry: after admissions in both classes and a
// rejection for each of the controller's reasons, every Stats field
// equals the registry series it reports, and the server's rate-limit
// reason stays out of Stats.Shed.
func TestStatsAgreeWithRegistry(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	c := New(Config{MaxInFlight: 1, MinInFlight: 1, MaxQueue: 1, BatchQueue: 1, Now: clock.Now, Metrics: reg})
	bg := context.Background()

	// Teach the controller a 100ms service time, then hold the one slot.
	rel, err := c.Acquire(bg, Interactive)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(100 * time.Millisecond)
	rel()
	hold, err := c.Acquire(bg, Batch)
	if err != nil {
		t.Fatal(err)
	}
	queue := func(ctx context.Context) chan error {
		errc := make(chan error, 1)
		go func() {
			r, err := c.Acquire(ctx, Interactive)
			if err == nil {
				r()
			}
			errc <- err
		}()
		waitFor(t, func() bool { return c.Stats().Queued[Interactive] == 1 })
		return errc
	}
	ctx, cancel := context.WithCancel(bg)
	canceled := queue(ctx)
	if _, err := c.Acquire(bg, Interactive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	doomed, cancelDoomed := context.WithDeadline(bg, clock.Now().Add(50*time.Millisecond))
	defer cancelDoomed()
	if _, err := c.Acquire(doomed, Batch); !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	flushed := queue(bg)
	c.StartDrain()
	if err := <-flushed; !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	if _, err := c.Acquire(bg, Interactive); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	hold()
	reg.Counter(MetricShed, "reason", "rate_limit").Inc() // as the server counts it

	st := c.Stats()
	wantShed := map[string]int64{"queue_full": 1, "deadline": 1, "canceled": 1, "draining": 2}
	if st.Admitted != 2 || !maps.Equal(st.Shed, wantShed) {
		t.Fatalf("stats = %+v, want 2 admitted and shed %v", st, wantShed)
	}
	admitted := reg.Counter(MetricAdmitted, "class", "interactive").Value() +
		reg.Counter(MetricAdmitted, "class", "batch").Value()
	if st.Admitted != admitted {
		t.Errorf("Admitted = %d, registry %d", st.Admitted, admitted)
	}
	for reason, n := range st.Shed {
		if v := reg.Counter(MetricShed, "reason", reason).Value(); v != n {
			t.Errorf("Shed[%s] = %d, registry %d", reason, n, v)
		}
	}
	if v := reg.Gauge(MetricInFlight).Value(); int64(st.InFlight) != v {
		t.Errorf("InFlight = %d, registry %d", st.InFlight, v)
	}
	if v := reg.Gauge(MetricLimit).Value(); int64(st.Limit) != v {
		t.Errorf("Limit = %d, registry %d", st.Limit, v)
	}
	for p := Interactive; p < numPriorities; p++ {
		if v := reg.Gauge(MetricQueueDepth, "class", p.String()).Value(); int64(st.Queued[p]) != v {
			t.Errorf("Queued[%s] = %d, registry %d", p, st.Queued[p], v)
		}
	}
}
