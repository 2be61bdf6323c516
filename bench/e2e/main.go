// Command e2e is the repository's end-to-end benchmark: it serves generated
// data through the real HTTP stack in a child process, drives it with
// closed- and open-loop load, checks the answers against gold SQL, and
// walks the layers one by one for a per-layer breakdown. README.md in this
// directory says how to run it and what every number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 24

// options are the settings shared by every run of one invocation.
type options struct {
	seconds float64
	// smoke shortens every run to smokeQuestions of warm-up, checked
	// prefix and layer walk, and to the minimum of stack constructions.
	smoke  bool
	outDir string
}

const smokeQuestions = 5

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all workloads, untraced then traced)")
		seed         = flag.Int64("seed", 1, "seed of the generated data and question streams")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured seconds per run: half closed loop, half open loop")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics with tracing off, 1 the per-layer metrics of a traced layer walk")
		out          = flag.String("out", filepath.Join(".bench_build", "out"), "directory for result.json and trace_<workload>.json")
		repeat       = flag.Int("repeat", 1, "without -workload: run everything this many times, with seeds seed, seed+1, …")
		smoke        = flag.Bool("smoke", false, "one measured second and five questions per warm-up and walk: checks the harness, not the system")
		compare      = flag.Bool("compare", false, "compare two result.json files: -compare BASE.json NEW.json")
		specPath     = flag.String("spec", "BENCHMARK.json", "the benchmark contract, read by -compare for directions and bounds")
		serve        = flag.Bool("serve", false, "internal: serve -dataset in -topology until standard input closes")
		dataset      = flag.String("dataset", "", "internal: dataset of the serving child")
		topology     = flag.String("topology", "", "internal: topology of the serving child")
	)
	flag.Parse()

	switch {
	case *serve:
		if err := serveChild(*dataset, *topology, *seed, *smoke); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result.json files"))
		}
		regressed, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		opts := options{seconds: *seconds, outDir: *out}
		if *smoke {
			opts.seconds, opts.smoke = 1, true
		}
		var ok bool
		var err error
		if *workloadName != "" {
			ok, err = runOne(*workloadName, *seed, *trace == 1, opts)
		} else {
			ok, err = runAll(*seed, *repeat, opts)
		}
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench/e2e:", err)
	os.Exit(2)
}

// run measures one workload once, traced or not, and prints its metrics as
// `workload metric value unit` lines; what is not a metric goes to
// standard error.
func run(w *workload, seed int64, traced bool, opts options) (*report, error) {
	var r *report
	var err error
	if traced {
		r, err = runLayers(w, seed, opts)
	} else {
		r, err = runEndToEnd(w, seed, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	for _, m := range r.Metrics {
		fmt.Printf("%s %s %v %s\n", w.Name, m.Name, m.Value, m.Unit)
	}
	for _, line := range r.Info {
		fmt.Fprintf(os.Stderr, "# %s %s\n", w.Name, line)
	}
	return r, nil
}

// driverResult is the last line of standard output in -workload mode.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, one run, one JSON line.
func runOne(name string, seed int64, traced bool, opts options) (bool, error) {
	w := workloadByName(name)
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	r, err := run(w, seed, traced, opts)
	if err != nil {
		return false, err
	}
	res := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, m := range r.Metrics {
		res.Metrics[m.Name] = driverValue{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return r.Correct, nil
}

// runAll measures every workload, untraced then traced, `repeat` times,
// and writes result.json.
func runAll(seed int64, repeat int, opts options) (bool, error) {
	res := resultFile{Env: environment(), Seconds: opts.seconds}
	ok := true
	start := time.Now()
	for i := 0; i < repeat; i++ {
		res.Seeds = append(res.Seeds, seed+int64(i))
		for wi := range workloads {
			for _, traced := range []bool{false, true} {
				r, err := run(&workloads[wi], seed+int64(i), traced, opts)
				if err != nil {
					return false, err
				}
				res.merge(r)
				ok = ok && r.Correct
			}
		}
	}
	fmt.Fprintf(os.Stderr, "# total %.0f s\n", time.Since(start).Seconds())
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return false, err
	}
	return ok, writeJSON(filepath.Join(opts.outDir, "result.json"), res)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
