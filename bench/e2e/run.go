package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"nlidb/internal/sqldata"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is the outcome of one run of one workload, traced or not.
type report struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Info carries what a reader needs to judge the metrics — sample
	// counts, generator lateness, failed checks — without being one.
	Info []string
}

func (r *report) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, value, unit})
}

func (r *report) infof(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.infof("CHECK FAILED: "+format, args...)
}

// maxFailRatio is the share of requests that may fail before the run's
// outputs count as wrong.
const maxFailRatio = 0.02

// child is a running serving process.
type child struct {
	cmd     *exec.Cmd
	stdin   io.Closer
	hello   childHello
	stopped bool
}

// startChild re-executes this binary in the serve role and waits for its
// address.
func startChild(dataset, topology string, seed int64, smoke bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve", "-dataset", dataset, "-topology", topology,
		"-seed", strconv.FormatInt(seed, 10), "-smoke="+strconv.FormatBool(smoke))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &c.hello)
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("serving child did not start: %w", err)
	}
	return c, nil
}

// stop closes the child's standard input, which makes it exit, and waits
// for it; a child that does not exit within ten seconds is killed. Calling
// it again does nothing.
func (c *child) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.stdin.Close()
	t := time.AfterFunc(10*time.Second, func() { c.cmd.Process.Kill() })
	defer t.Stop()
	c.cmd.Wait() // the exit status of a process we told to stop says nothing
}

// clockTicksPerSecond is the unit of the CPU times in /proc/<pid>/stat
// (USER_HZ, 100 on every Linux platform Go supports).
const clockTicksPerSecond = 100

// cpuSeconds is the child's user plus system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is parenthesised and may hold spaces;
	// utime and stime are fields 14 and 15.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU times in /proc stat line %q", s)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// peakRSSMB is the child's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// session is one serving child with the inputs and the checks of one run.
type session struct {
	// warmup requests precede the measured phases; the first checked
	// requests of the stream have their rows compared with gold.
	warmup, checked int
	db              *sqldata.Database // this process's copy of the data the child serves
	qs              *stream
	oracle          *oracle
	child           *child
	samples         []sample // every request sent so far, all phases
}

func openSession(w *workload, seed int64, opts options) (*session, error) {
	d, err := buildDataset(w.Dataset, seed)
	if err != nil {
		return nil, err
	}
	c, err := startChild(w.Dataset, w.Topology, seed, opts.smoke)
	if err != nil {
		return nil, err
	}
	s := &session{warmup: w.Warmup, checked: w.Checked, db: d.DB, qs: w.stream(d, seed), oracle: newOracle(d.DB), child: c}
	if opts.smoke {
		s.warmup, s.checked = smokeQuestions, smokeQuestions
	}
	return s, nil
}

// phase sends one load phase, continuing the question stream where the
// previous phase stopped.
func (s *session) phase(p loadPhase) []sample {
	cl := newClient(s.child.hello.Addr, p.workers)
	defer cl.close()
	if n := len(s.samples); n > 0 {
		p.first = s.samples[n-1].Index + 1
	}
	out := runLoad(realClock{}, p, func(i int) reply {
		return cl.ask(s.qs.at(i).Text, i < s.checked)
	})
	s.samples = append(s.samples, out...)
	return out
}

func (s *session) warmUp() {
	s.phase(loadPhase{workers: loadClients, count: s.warmup})
}

// check runs the output oracle over every request sent and fills in the
// report's verdict. It returns the execution accuracy: the share of checked
// requests whose rows are the gold statement's rows. A refusal or a failed
// request has no rows and counts as wrong.
func (s *session) check(r *report) (accuracy float64, err error) {
	r.Correct = true
	r.Attempted = len(s.samples)
	checked, right, refused := 0, 0, 0
	firstHash := map[int]uint64{}
	for _, sm := range s.samples {
		rep := sm.Reply
		pick := s.qs.Picks[sm.Index%len(s.qs.Picks)]
		if sm.Index < s.checked {
			checked++
		}
		switch {
		case rep.refused():
			refused++
			continue
		case !rep.ok():
			r.Failed++
			if rep.Status != 0 && !rep.ValidJSON {
				r.fail("request %d: status %d with a body that is not the documented JSON", sm.Index, rep.Status)
			}
			continue
		}
		// A question asked twice must get the same rows, cached or not.
		if h, seen := firstHash[pick]; !seen {
			firstHash[pick] = rep.RowsHash
		} else if h != rep.RowsHash {
			r.fail("request %d: rows differ from an earlier answer to the same question %q", sm.Index, s.qs.Pool[pick].Text)
		}
		if sm.Index < s.checked {
			ok, err := s.oracle.matches(s.qs.Pool[pick].Gold, rep.Rows)
			if err != nil {
				return 0, err
			}
			if ok {
				right++
			}
		}
	}
	if fr := ratio(float64(r.Failed), float64(r.Attempted)); fr > maxFailRatio {
		r.fail("%d of %d requests failed (limit %.0f%%)", r.Failed, r.Attempted, maxFailRatio*100)
	}
	if right == 0 {
		r.fail("no checked answer matched its gold statement")
	}
	r.infof("requests %d failed %d refused %d; checked %d correct %d", r.Attempted, r.Failed, refused, checked, right)
	return ratio(float64(right), float64(checked)), nil
}

// millis lists one duration of every sample, in milliseconds.
func millis(samples []sample, of func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(of(s)) / float64(time.Millisecond)
	}
	return out
}

func countOK(samples []sample) (n int) {
	for _, s := range samples {
		if s.Reply.ok() {
			n++
		}
	}
	return n
}

// wallTime is the time from the first send to the last completion.
func wallTime(samples []sample) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	first, last := samples[0].Sent, samples[0].Done
	for _, s := range samples {
		if s.Sent.Before(first) {
			first = s.Sent
		}
		if s.Done.After(last) {
			last = s.Done
		}
	}
	return last.Sub(first)
}

// runEndToEnd measures one workload as a client sees it: a warm-up, a
// closed-loop phase and an open-loop phase of seconds/2 each, with no
// benchmark-side tracing.
func runEndToEnd(w *workload, seed int64, opts options) (*report, error) {
	s, err := openSession(w, seed, opts)
	if err != nil {
		return nil, err
	}
	defer s.child.stop()
	half := time.Duration(opts.seconds / 2 * float64(time.Second))

	s.warmUp()
	cpu0, err := s.child.cpuSeconds()
	if err != nil {
		return nil, err
	}
	closed := s.phase(loadPhase{workers: loadClients, duration: half})
	cpu1, err := s.child.cpuSeconds()
	if err != nil {
		return nil, err
	}
	open := s.phase(loadPhase{workers: openWorkers, rate: w.OpenRate, duration: half})
	rss, err := s.child.peakRSSMB()
	if err != nil {
		return nil, err
	}
	s.child.stop()

	r := &report{Workload: w.Name}
	accuracy, err := s.check(r)
	if err != nil {
		return nil, err
	}
	lat := millis(closed, sample.latency)
	r.add("setup_s", median(s.child.hello.SetupS), "s")
	r.add("qps", ratio(float64(countOK(closed)), wallTime(closed).Seconds()), "1/s")
	r.add("p50_ms", percentileOf(lat, 50), "ms")
	r.add("p95_ms", percentileOf(lat, 95), "ms")
	r.add("open_p90_ms", percentileOf(millis(open, sample.latency), 90), "ms")
	r.add("cpu_ms_per_req", ratio((cpu1-cpu0)*1000, float64(len(closed))), "ms")
	r.add("rss_mb", rss, "MB")
	r.add("ok_ratio", 1-ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	r.add("exec_accuracy", accuracy, "ratio")

	if p, ok := highestPercentile(len(closed)); !ok || p < 95 {
		r.infof("closed_samples %d: too few for p95 (needs ten samples beyond it)", len(closed))
	} else {
		r.infof("closed_samples %d: highest supported percentile p%g", len(closed), p)
	}
	late := millis(open, sample.lateness)
	r.infof("open_samples %d at %g/s: generator lateness p50 %.3f ms p90 %.3f ms",
		len(open), w.OpenRate, percentileOf(late, 50), percentileOf(late, 90))
	return r, nil
}
