package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nlidb/internal/benchdata"
)

// datasetDigest hashes every cell of every table, in order.
func datasetDigest(d *benchdata.Domain) [32]byte {
	h := sha256.New()
	for _, t := range d.DB.Tables() {
		fmt.Fprintln(h, t.Schema.DDL())
		for _, row := range t.Rows {
			for _, v := range row {
				fmt.Fprint(h, v.String(), "\x00")
			}
			fmt.Fprintln(h)
		}
	}
	return [32]byte(h.Sum(nil))
}

func streamDigest(s *stream) [32]byte {
	h := sha256.New()
	for _, q := range s.Pool {
		fmt.Fprintf(h, "%s\x00%s\n", q.Text, q.Gold)
	}
	fmt.Fprint(h, s.Picks)
	return [32]byte(h.Sum(nil))
}

// One seed gives byte-identical datasets and question streams; another
// seed gives different ones of the same size.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"sales2k", "ops200k"} {
		a, err := buildDataset(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildDataset(name, 7)
		c, _ := buildDataset(name, 8)
		if datasetDigest(a) != datasetDigest(b) {
			t.Errorf("%s: same seed, different data", name)
		}
		if datasetDigest(a) == datasetDigest(c) {
			t.Errorf("%s: different seeds, same data", name)
		}
		for i, tab := range a.DB.Tables() {
			if got, want := len(c.DB.Tables()[i].Rows), len(tab.Rows); got != want {
				t.Errorf("%s.%s: %d rows with seed 8, %d with seed 7", name, tab.Schema.Name, got, want)
			}
		}
		for i := range workloads {
			w := &workloads[i]
			if w.Dataset != name {
				continue
			}
			sa, sb, sc := w.stream(a, 7), w.stream(b, 7), w.stream(c, 8)
			if streamDigest(sa) != streamDigest(sb) {
				t.Errorf("%s: same seed, different question stream", w.Name)
			}
			if streamDigest(sa) == streamDigest(sc) {
				t.Errorf("%s: different seeds, same question stream", w.Name)
			}
			if len(sa.Pool) < w.Checked || len(sa.Pool) < w.Walk {
				t.Errorf("%s: pool of %d questions is smaller than the checked (%d) or walked (%d) prefix", w.Name, len(sa.Pool), w.Checked, w.Walk)
			}
		}
	}
}

// The vocabulary stream must outrun the answer cache, or a fast system
// would wrap around into cache hits.
func TestVocabStreamOutrunsCache(t *testing.T) {
	d, _ := buildDataset("sales2k", 1)
	s := vocabStream(d, 1)
	seen := map[string]bool{}
	for _, q := range s.Pool {
		seen[q.Text] = true
	}
	if len(seen) < 2*answerCacheEntries {
		t.Errorf("%d distinct questions, want at least %d", len(seen), 2*answerCacheEntries)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // the median leaves 9 beyond
		{20, 50, true},
		{100, 90, true}, // p95 leaves 5 beyond
		{199, 90, true}, // p95 leaves 9 beyond
		{200, 95, true}, // p95 leaves exactly 10
		{300, 95, true},
		{999, 95, true}, // p99 leaves 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// fakeClock advances only when something sleeps on it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// In an open loop a stall is charged to every request it delays: latency
// runs from the due time, and the time a request went out late is reported
// as generator lateness.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	service := []time.Duration{250 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	got := runLoad(clk, loadPhase{workers: 1, rate: 10, count: len(service), first: 5}, func(i int) reply {
		clk.Sleep(service[i-5])
		return reply{Status: 200, ValidJSON: true}
	})
	ms := time.Millisecond
	want := []struct{ due, lateness, latency time.Duration }{
		{0, 0, 250 * ms},
		{100 * ms, 150 * ms, 160 * ms}, // waited for the stalled request
		{200 * ms, 60 * ms, 70 * ms},
		{300 * ms, 0, 10 * ms}, // the generator caught up and slept until due
	}
	if len(got) != len(want) {
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
	start := time.Unix(1000, 0)
	for i, w := range want {
		s := got[i]
		if s.Index != 5+i || s.Due.Sub(start) != w.due || s.lateness() != w.lateness || s.latency() != w.latency {
			t.Errorf("request %d: index %d due +%v lateness %v latency %v; want index %d due +%v lateness %v latency %v",
				i, s.Index, s.Due.Sub(start), s.lateness(), s.latency(), 5+i, w.due, w.lateness, w.latency)
		}
	}

	// A timed open-loop phase sends exactly the requests due before its end.
	clk = &fakeClock{now: start}
	got = runLoad(clk, loadPhase{workers: 1, rate: 10, duration: time.Second}, func(int) reply { return reply{} })
	if len(got) != 10 {
		t.Errorf("open loop at 10/s for 1 s sent %d requests, want 10", len(got))
	}
	// A closed loop is paced by the replies.
	clk = &fakeClock{now: start}
	got = runLoad(clk, loadPhase{workers: 1, duration: time.Second}, func(int) reply {
		clk.Sleep(300 * ms)
		return reply{}
	})
	if len(got) != 4 || got[3].latency() != 300*ms {
		t.Errorf("closed loop with 300 ms replies for 1 s: %d requests, want 4 of 300 ms", len(got))
	}
}

func TestSelfTime(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Parent: 0, Name: "question", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a: 10..50 is covered once
		{ID: 4, Parent: 1, Name: "a", StartNs: 60, EndNs: 120}, // runs past its parent: clipped at 100
		{ID: 5, Parent: 3, Name: "c", StartNs: 25, EndNs: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 20, 2: 20, 3: 10, 4: 60, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfTimeByName(spans)
	if byName["a"] != 80 || byName["question"] != 20 {
		t.Errorf("self time by name = %v", byName)
	}

	tr := newTracer()
	tr.trace = 3
	tr.do("outer", func() { tr.do("inner", func() {}) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 || tr.spans[1].Trace != 3 {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
}

func TestSameRows(t *testing.T) {
	a := [][]string{{"north", "50.123456789012"}, {"south", "7"}}
	b := [][]string{{"south", "7"}, {"north", "50.123456789099"}} // a float sum added in another order
	if !sameRows(a, b, false) {
		t.Error("unordered comparison should ignore row order and float noise")
	}
	if sameRows(a, b, true) {
		t.Error("ordered comparison should see the rows swapped")
	}
	if sameRows(a, [][]string{{"north", "50.2"}, {"south", "7"}}, false) {
		t.Error("a different value should not match")
	}
	if sameRows(a, a[:1], false) {
		t.Error("a missing row should not match")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{100, 140, 70, 100, 130, 75}
	for _, c := range []struct {
		name      string
		m         specMetric
		base, new []float64
		want      string
	}{
		{"slower within bound", lower, steady, []float64{108}, "ok"},
		{"slower beyond bound", lower, steady, []float64{112}, "regressed"},
		{"faster", lower, steady, []float64{50}, "ok"},
		{"throughput down beyond bound", higher, steady, []float64{88}, "regressed"},
		{"throughput up", higher, steady, []float64{150}, "ok"},
		{"base too noisy to tell", lower, noisy, []float64{150}, "unresolved"},
		{"single base run, no spread", lower, []float64{100}, []float64{120}, "regressed"},
	} {
		if got := judge(c.m, c.base, c.new); got.verdict != c.want {
			t.Errorf("%s: %s (change %+.2f, spread %.2f), want %s", c.name, got.verdict, got.change, got.spread, c.want)
		}
	}
}

// The smoke run must emit every workload and metric BENCHMARK.json names,
// once, and nothing else, with well-formed names.
func TestSmokeEmitsTheContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, w := range spec.Workloads {
		for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
			want[w.Name+" "+m.Name+" "+m.Unit] = 0
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "e2e")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-smoke", "-seed", "3", "-out", dir)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stderr.String())
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 {
			t.Errorf("line %q is not `workload metric value unit`", sc.Text())
			continue
		}
		if !name.MatchString(f[0]) || !name.MatchString(f[1]) {
			t.Errorf("line %q: malformed name", sc.Text())
		}
		key := f[0] + " " + f[1] + " " + f[3]
		if _, ok := want[key]; !ok {
			t.Errorf("line %q is not in BENCHMARK.json", sc.Text())
			continue
		}
		want[key]++
	}
	for key, n := range want {
		if n != 1 {
			t.Errorf("%s emitted %d times, want once", key, n)
		}
	}
	res, err := loadResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go", "kernel", "commit"} {
		if res.Env[k] == "" {
			t.Errorf("result.json env lacks %s", k)
		}
	}
	for _, w := range workloads {
		if m, _ := filepath.Glob(filepath.Join(dir, "trace_"+w.Name+".json")); len(m) != 1 {
			t.Errorf("no trace file for %s", w.Name)
		}
	}
}
