package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// resultFile is result.json: every metric of every workload, one value per
// repeat, under a header that says where they were measured.
type resultFile struct {
	Env       map[string]string `json:"env"`
	Seeds     []int64           `json:"seeds"`
	Seconds   float64           `json:"seconds"`
	Workloads []*resultWorkload `json:"workloads"`
}

type resultWorkload struct {
	Name      string          `json:"name"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   []*resultMetric `json:"metrics"`
	Info      []string        `json:"info"`
}

type resultMetric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// merge folds one run's report into the file.
func (f *resultFile) merge(r *report) {
	var w *resultWorkload
	for _, have := range f.Workloads {
		if have.Name == r.Workload {
			w = have
		}
	}
	if w == nil {
		w = &resultWorkload{Name: r.Workload, Correct: true}
		f.Workloads = append(f.Workloads, w)
	}
	w.Correct = w.Correct && r.Correct
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Info = append(w.Info, r.Info...)
	for _, m := range r.Metrics {
		rm := w.metric(m.Name)
		if rm == nil {
			rm = &resultMetric{Name: m.Name, Unit: m.Unit}
			w.Metrics = append(w.Metrics, rm)
		}
		rm.Values = append(rm.Values, m.Value)
	}
}

func (w *resultWorkload) metric(name string) *resultMetric {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m
		}
	}
	return nil
}

func (f *resultFile) workload(name string) *resultWorkload {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// environment describes the machine and the code the numbers come from.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     "unknown",
		"commit":     "unknown",
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(raw))
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// quartiles returns the first and third quartile of values the way
// Python's statistics.quantiles(values, n=4) does, which is what the
// driver uses; it needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// compareFiles prints, for every workload and end-to-end metric, the base
// and the new median, their difference as a share of the base, the bound,
// and a verdict. It reports whether any metric regressed.
func compareFiles(out io.Writer, specPath, basePath, newPath string) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := loadResult(basePath)
	if err != nil {
		return false, err
	}
	next, err := loadResult(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "base %s (commit %s, %d runs)\nnew  %s (commit %s, %d runs)\n",
		basePath, base.Env["commit"], len(base.Seeds), newPath, next.Env["commit"], len(next.Seeds))
	fmt.Fprintf(out, "%-15s %-15s %12s %12s %9s %7s %8s  %s\n", "workload", "metric", "base", "new", "change", "bound", "spread", "verdict")
	for _, sw := range spec.Workloads {
		bw, nw := base.workload(sw.Name), next.workload(sw.Name)
		if bw == nil || nw == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", sw.Name)
		}
		for _, sm := range spec.EndToEnd {
			bm, nm := bw.metric(sm.Name), nw.metric(sm.Name)
			if bm == nil || nm == nil {
				return false, fmt.Errorf("%s %s is missing from a result file", sw.Name, sm.Name)
			}
			v := judge(sm, bm.Values, nm.Values)
			regressed = regressed || v.verdict == "regressed"
			spread := "n/a"
			if v.spreadKnown {
				spread = fmt.Sprintf("%.1f%%", v.spread*100)
			}
			fmt.Fprintf(out, "%-15s %-15s %12.4f %12.4f %+8.1f%% %6.1f%% %8s  %s\n",
				sw.Name, sm.Name, v.base, v.next, v.change*100, sm.Bound*100, spread, v.verdict)
		}
	}
	fmt.Fprintln(out, "change is (new − base) / base of the medians; spread is the base runs' interquartile range over their median.")
	return regressed, nil
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	base, next  float64 // medians
	change      float64 // (next − base) / base
	spread      float64 // base interquartile range / base median
	spreadKnown bool    // false with fewer than four base runs
	verdict     string  // "ok", "regressed" or "unresolved"
}

// judge applies the benchmark's rule: a metric regressed when the new
// median is worse than the base median by more than the bound, and the
// pair is unresolved when the base runs themselves spread wider than the
// bound, because then a difference of that size proves nothing.
func judge(sm specMetric, baseValues, newValues []float64) verdict {
	v := verdict{base: median(baseValues), next: median(newValues), verdict: "ok"}
	v.change = ratio(v.next-v.base, v.base)
	if len(baseValues) >= 4 {
		q1, q3 := quartiles(baseValues)
		v.spread, v.spreadKnown = ratio(q3-q1, v.base), true
	}
	worse := v.change
	if sm.Better == "higher" {
		worse = -v.change
	}
	switch {
	case v.spreadKnown && v.spread > sm.Bound:
		v.verdict = "unresolved"
	case worse > sm.Bound:
		v.verdict = "regressed"
	}
	return v
}
