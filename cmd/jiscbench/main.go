// Command jiscbench regenerates the paper's tables and figures
// (EDBT 2014, §6) plus this repository's ablations. Each figure prints
// the same rows/series the paper reports; absolute numbers reflect
// this machine, shapes are the reproduction target.
//
// Usage:
//
//	jiscbench -fig all                         # everything, scaled down
//	jiscbench -fig 7 -window 10000 -tuples 10000000   # paper scale
//	jiscbench -fig props                       # Propositions 1–3 table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"jisc/internal/bench"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to reproduce: 7, 8, 9, 10a, 10b, 11, 12, props, stairs, proc, skew, mem, timeline, overlap, all")
		window  = flag.Int("window", 1000, "per-stream sliding window size in tuples (paper: 10000)")
		domain  = flag.Int64("domain", 0, "join-key domain size (default: window, ≈1 match per probe per level)")
		tuples  = flag.Int("tuples", 50000, "tuples per measurement (paper: 10000000)")
		seed    = flag.Int64("seed", 1, "workload seed")
		joins   = flag.Int("joins", 20, "joins for figures 9, 11, 12 (paper: 20)")
		ptcheck = flag.Int("ptcheck", 0, "Parallel Track discard-scan period in tuples (0 = window/10)")
		reps    = flag.Int("reps", 3, "repetitions per timing-sensitive measurement (min/median reported)")
	)
	flag.Parse()

	if *domain == 0 {
		*domain = int64(*window)
	}
	cfg := bench.Config{Window: *window, Domain: *domain, Tuples: *tuples, Seed: *seed, PTCheckEvery: *ptcheck, Reps: *reps}
	w := os.Stdout

	run := func(name string, f func() error) {
		fmt.Fprintf(w, "\n== %s ==\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "jiscbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	want := func(name string) bool {
		return *fig == "all" || strings.EqualFold(*fig, name)
	}

	joinSweep := []int{4, 8, 12, 16, 20}
	freqPeriods := []int{
		*tuples / 10, *tuples / 5, *tuples / 4, *tuples / 2, *tuples,
	}
	latWindows := []int{*window / 8, *window / 4, *window / 2, *window}
	nlWindows := []int{32, 64, 128, 256}

	any := false
	if want("7") {
		any = true
		run("Figure 7", func() error { _, err := bench.Figure7(cfg, joinSweep, w); return err })
	}
	if want("8") {
		any = true
		run("Figure 8", func() error { _, err := bench.Figure8(cfg, joinSweep, w); return err })
	}
	if want("9") {
		any = true
		run("Figure 9", func() error { _, err := bench.Figure9(cfg, *joins, 10, w); return err })
	}
	if want("10a") {
		any = true
		run("Figure 10a", func() error { _, err := bench.Figure10Hash(cfg, 6, latWindows, w); return err })
	}
	if want("10b") {
		any = true
		run("Figure 10b", func() error { _, err := bench.Figure10NL(cfg, 3, nlWindows, w); return err })
	}
	if want("11") {
		any = true
		run("Figure 11", func() error { _, err := bench.Figure11(cfg, *joins, freqPeriods, w); return err })
	}
	if want("12") {
		any = true
		run("Figure 12", func() error { _, err := bench.Figure12(cfg, *joins, freqPeriods, w); return err })
	}
	if want("props") {
		any = true
		run("Propositions 1–3", func() error {
			bench.PropositionTable([]int{8, 16, 32, 64, 128, 256, 512, 1024, 4096}, 200000, *seed, w)
			return nil
		})
	}
	if want("stairs") {
		any = true
		run("STAIRs ablation", func() error {
			_, err := bench.StairsAblation(cfg, 8, []int{*tuples / 10, *tuples / 2, *tuples}, w)
			return err
		})
	}
	if want("proc") {
		any = true
		run("Procedure 2 vs 3 ablation", func() error {
			_, err := bench.ProcedureAblation(cfg, []int{4, 8, 12, 16, 20}, w)
			return err
		})
	}
	if want("skew") {
		any = true
		run("Key-skew ablation", func() error {
			_, err := bench.SkewAblation(cfg, 8, w)
			return err
		})
	}
	if want("mem") {
		any = true
		run("Memory ablation (§5)", func() error {
			_, err := bench.MemoryAblation(cfg, 8, w)
			return err
		})
	}
	if want("timeline") {
		any = true
		run("Steady output timeline (§5.1.1)", func() error {
			_, _, err := bench.Timeline(cfg, 8, 11, *window/4, w)
			return err
		})
	}
	if want("overlap") {
		any = true
		run("Overlapped transitions (§3.3)", func() error {
			turnover := 9 * *window
			_, err := bench.OverlapAblation(cfg, 8, []int{turnover / 8, turnover / 4, turnover / 2}, w)
			return err
		})
	}
	if !any {
		fmt.Fprintf(os.Stderr, "jiscbench: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
}
