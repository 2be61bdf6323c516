// Command nlidb-bench runs the reproduction study: every experiment table
// derived from the survey's claims (see DESIGN.md for the mapping and
// EXPERIMENTS.md for recorded outcomes), printed in order. The tables are
// seeded and deterministic; scripts/tables_check.sh diffs the seed-1 run
// against its golden file.
//
// Usage:
//
//	nlidb-bench [-seed N] [-only T1,T5,A1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nlidb/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for data generation and training")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	start := time.Now()
	ran := 0
	for _, e := range experiments.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t0 := time.Now()
		tbl, err := e.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nlidb-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tbl)
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "nlidb-bench: no experiments matched -only")
		os.Exit(1)
	}
	fmt.Printf("ran %d experiment(s) in %.1fs (seed %d)\n", ran, time.Since(start).Seconds(), *seed)
}
