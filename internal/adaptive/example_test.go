package adaptive_test

import (
	"fmt"
	"time"

	"jisc/internal/adaptive"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/workload"
)

// The autopilot single-stepped on a logical clock, one tick per 500
// tuples. A five-way join's streams have very different selectivities,
// and two of them swap roles halfway: stream 1 first matches almost
// every probe and stream 4 almost none, then the reverse. Each time the
// measured best order beats the running plan on enough consecutive
// ticks, the controller migrates the engine through JISC.
func ExampleController_Step() {
	e := engine.MustNew(engine.Config{
		Plan: plan.MustLeftDeep(0, 1, 2, 3, 4), WindowSize: 300, Strategy: core.New(),
	})
	auto := adaptive.MustNew(adaptive.SingleEngine{Engine: e}, adaptive.Config{
		Cooldown: 2 * time.Second, MinProbes: 32,
	})
	clock := time.Unix(0, 0)
	for phase, domains := range [][]int64{
		{300, 20, 300, 300, 4000},
		{300, 4000, 300, 300, 20},
	} {
		src := workload.MustNewSource(workload.Config{
			Streams: 5, Domain: 300, Seed: int64(phase + 1), Domains: domains,
		})
		for i := 0; i < 40000; i++ {
			e.Feed(src.Next())
			if i%500 == 0 {
				clock = clock.Add(500 * time.Millisecond)
				before := auto.Migrations()
				auto.Step(clock)
				if auto.Migrations() != before {
					order, _ := e.Plan().Order()
					fmt.Printf("phase %d, tuple %5d: re-planned to %v\n", phase+1, i, order)
				}
			}
		}
	}
	m := e.Metrics()
	fmt.Printf("in=%d out=%d migrations=%d completions=%d\n", m.Input, m.Output, auto.Migrations(), m.Completions)
	// Output:
	// phase 1, tuple  2500: re-planned to [4 0 2 1 3]
	// phase 1, tuple  8500: re-planned to [4 0 1 3 2]
	// phase 1, tuple 15000: re-planned to [0 4 3 1 2]
	// phase 2, tuple  1000: re-planned to [4 3 2 0 1]
	// phase 2, tuple 22500: re-planned to [1 0 4 3 2]
	// phase 2, tuple 30500: re-planned to [1 0 3 4 2]
	// in=80000 out=6882 migrations=6 completions=5315
}
