package jisc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"jisc"
)

// The basic lifecycle: declare a plan, feed tuples, migrate live.
func ExampleNewQuery() {
	q, err := jisc.NewQuery(jisc.QueryConfig{
		Plan:       jisc.LeftDeep(0, 1, 2),
		WindowSize: 1000,
		Strategy:   jisc.JISC,
		Output: func(d jisc.Delta) {
			fmt.Printf("match: %s\n", d.Tuple.Fingerprint())
		},
	})
	if err != nil {
		panic(err)
	}
	q.Feed(jisc.Event{Stream: 0, Key: 42})
	q.Feed(jisc.Event{Stream: 1, Key: 42})
	q.Feed(jisc.Event{Stream: 2, Key: 42})

	// Migrate the running query — no halt, no lost results.
	if err := q.Migrate(jisc.LeftDeep(1, 2, 0)); err != nil {
		panic(err)
	}
	q.Feed(jisc.Event{Stream: 0, Key: 42})
	fmt.Printf("transitions: %d\n", q.Metrics().Transitions)
	// Output:
	// match: 0#1|1#1|2#1
	// match: 0#2|1#1|2#1
	// transitions: 1
}

// Streaming set-difference with retractions (§4.7 of the paper).
func ExampleNewSetDiffQuery() {
	q, err := jisc.NewSetDiffQuery(jisc.QueryConfig{
		Plan:       jisc.LeftDeep(0, 1), // stream 0 minus stream 1
		WindowSize: 100,
		Output: func(d jisc.Delta) {
			if d.Retraction {
				fmt.Printf("retract %d\n", d.Tuple.Key)
			} else {
				fmt.Printf("pass %d\n", d.Tuple.Key)
			}
		},
	})
	if err != nil {
		panic(err)
	}
	q.Feed(jisc.Event{Stream: 0, Key: 7}) // passes
	q.Feed(jisc.Event{Stream: 1, Key: 7}) // vetoes it
	// Output:
	// pass 7
	// retract 7
}

// Checkpoint a query mid-migration and resume it: the new plan's states
// are still incomplete when the checkpoint is taken, and the restored
// query carries on completing them lazily.
func ExampleRestoreQuery() {
	results := 0
	cfg := jisc.QueryConfig{
		Plan: jisc.LeftDeep(0, 1, 2), WindowSize: 500, Strategy: jisc.JISC,
		Output: func(jisc.Delta) { results++ },
	}
	feed := func(q *jisc.Query, rounds jisc.Value) {
		for id := jisc.Value(0); id < rounds; id++ {
			for s := jisc.StreamID(0); s < 3; s++ {
				q.Feed(jisc.Event{Stream: s, Key: id % 100})
			}
		}
	}
	q, err := jisc.NewQuery(cfg)
	if err != nil {
		panic(err)
	}
	feed(q, 400)
	if err := q.Migrate(jisc.LeftDeep(2, 1, 0)); err != nil {
		panic(err)
	}
	q.Feed(jisc.Event{Stream: 0, Key: 7})
	m := q.Metrics()
	fmt.Printf("checkpoint: plan %s, in=%d out=%d completions=%d\n", q.Plan(), m.Input, m.Output, m.Completions)

	var ckpt bytes.Buffer
	if err := q.Checkpoint(&ckpt); err != nil {
		panic(err)
	}
	// A restarted process does the same; the restore ignores cfg.Plan.
	r, err := jisc.RestoreQuery(&ckpt, cfg)
	if err != nil {
		panic(err)
	}
	feed(r, 200)
	m = r.Metrics()
	fmt.Printf("restored: plan %s, in=%d out=%d completions=%d\n", r.Plan(), m.Input, m.Output, m.Completions)
	fmt.Printf("results across the restart: %d\n", results)
	// Output:
	// checkpoint: plan ((2⋈1)⋈0), in=1201 out=6416 completions=1
	// restored: plan ((2⋈1)⋈0), in=1801 out=20035 completions=100
	// results across the restart: 20035
}

// A query on its own goroutine: Feed enqueues, Migrate applies in-band
// between the tuples fed before and after it, and Flush waits for the
// queue, so Metrics counts everything fed. Five sensors report on 300
// zones; in each phase one of them bursts, and the plan is then
// re-ordered so the streams seen most often join last.
func ExampleNewAsyncQuery() {
	q, err := jisc.NewAsyncQuery(jisc.QueryConfig{
		Plan: jisc.LeftDeep(0, 1, 2, 3, 4), WindowSize: 600, Strategy: jisc.JISC,
	}, 4096)
	if err != nil {
		panic(err)
	}
	defer q.Close()
	names := []string{"temp", "humid", "press", "vibr", "acoust"}
	rng := rand.New(rand.NewSource(7))
	var fed [5]int
	for hot := 0; hot < 4; hot++ {
		// The bursting sensor sends six readings to each of the others' one.
		for i := 0; i < 1000; i++ {
			s := i % 10
			if s >= 5 {
				s = hot
			}
			if err := q.Feed(jisc.Event{Stream: jisc.StreamID(s), Key: jisc.Value(rng.Intn(300))}); err != nil {
				panic(err)
			}
			fed[s]++
		}
		order := []jisc.StreamID{0, 1, 2, 3, 4}
		sort.SliceStable(order, func(i, j int) bool { return fed[order[i]] < fed[order[j]] })
		if err := q.Migrate(jisc.LeftDeep(order...)); err != nil {
			panic(err)
		}
		var labels []string
		for _, s := range order {
			labels = append(labels, names[s])
		}
		fmt.Printf("%s burst: re-planned to %v\n", names[hot], labels)
	}
	if err := q.Flush(); err != nil {
		panic(err)
	}
	m, err := q.Metrics()
	if err != nil {
		panic(err)
	}
	fmt.Printf("in=%d out=%d transitions=%d completions=%d\n", m.Input, m.Output, m.Transitions, m.Completions)
	// Output:
	// temp burst: re-planned to [humid press vibr acoust temp]
	// humid burst: re-planned to [press vibr acoust temp humid]
	// press burst: re-planned to [vibr acoust temp humid press]
	// vibr burst: re-planned to [acoust temp humid press vibr]
	// in=4000 out=13910 transitions=4 completions=1255
}

// Plans round-trip through their textual form.
func ExampleLeftDeep() {
	p := jisc.LeftDeep(2, 0, 1)
	fmt.Println(p)
	// Output: ((2⋈0)⋈1)
}
