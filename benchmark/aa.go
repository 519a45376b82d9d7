package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// machine describes the box a noise table was measured on.
func machine(h *harness) string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return fmt.Sprintf("nproc %d, %s, %s, kernel %s, pinned=%v (server CPU %d, generator CPUs %v), scratch %s",
		runtime.NumCPU(), model, runtime.Version(), strings.TrimSpace(string(kernel)), h.pin, h.serverCPU, h.genCPUs, h.tmp)
}

// runAA is the A/A noise check: n full sets of the same binary and
// seed, every workload × end-to-end metric — gated or demoted —
// compared across the sets. A gated metric passes when no set's value
// strays from the median of the sets by more than its bound; "needs" is
// the bound the issue's rule would give it on this evidence,
// max(5%, 2 × max deviation). It prints the table NOISE.md records.
func runAA(h *harness, chosen []*spec, seed uint64, scale float64, n int) error {
	sets := make([][]*result, n)
	for i := range sets {
		fmt.Fprintf(os.Stderr, "benchmark: A/A set %d of %d\n", i+1, n)
		var err error
		if sets[i], err = runOnce(h, chosen, seed, scale, 0, ""); err != nil {
			return err
		}
	}
	fmt.Printf("Machine: %s.\n\n", machine(h))
	fmt.Printf("| workload | metric | unit | sets | median | max deviation | needs | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, set := range sets {
		for _, res := range set {
			failed += res.failed
		}
	}
	for w, sp := range chosen {
		for _, m := range append(slices.Clip(endToEnd), demoted...) {
			vs := make([]float64, n)
			cells := make([]string, n)
			for i := range sets {
				vs[i] = sets[i][w].metrics[m.name].val
				cells[i] = fmt.Sprintf("%.4g", vs[i])
			}
			med := median(vs)
			dev := 0.0
			for _, v := range vs {
				dev = max(dev, math.Abs(v-med)/med)
			}
			bound, verdict := fmt.Sprintf("%.0f%%", m.bound*100), "PASS"
			switch {
			case m.bound == 0:
				bound, verdict = "none", "demoted"
			case dev > m.bound:
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %s | %.4g | %.1f%% | %.0f%% | %s | %s |\n",
				sp.name, m.name, m.unit, strings.Join(cells, " "), med, dev*100, max(5, 200*dev), bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A check failed (%d bound violations or failed operations)", failed)
	}
	return nil
}
