// Networked: the full daemon stack in one process — a jiscd-style
// server hosting two named queries, concurrent TCP producers, a
// subscriber streaming results, and a live MIGRATE on one query while
// traffic keeps flowing. Everything speaks the wire protocol through
// the client library, exactly as separate processes would.
//
// Run with:
//
//	go run ./examples/networked
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/server"
	"jisc/internal/tuple"
	"jisc/internal/workload"
)

func main() {
	srv, err := server.New(server.Config{Pipeline: runtime.Config{
		Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2),
			WindowSize: 2000,
			Strategy:   core.New(),
		},
		QueueSize: 4096,
	}})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	fmt.Printf("daemon on %s\n", addr)

	// An admin client creates a second query at runtime.
	admin, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	if err := admin.Create("audit", 500, plan.MustLeftDeep(0, 1, 2)); err != nil {
		log.Fatal(err)
	}
	names, err := admin.List()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hosted queries: %v\n", names)

	// A subscriber streams the default query's results.
	subClient, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer subClient.Close()
	results, err := subClient.Subscribe()
	if err != nil {
		log.Fatal(err)
	}
	var resultCount sync.WaitGroup
	resultCount.Add(1)
	var seen int
	go func() {
		defer resultCount.Done()
		for r := range results {
			seen++
			if seen <= 3 {
				fmt.Printf("streamed result: key=%d %s\n", r.Key, r.Fingerprint)
			}
			if seen == 200 {
				return
			}
		}
	}()

	// Three producer connections feed the default query concurrently;
	// a fourth feeds the audit query.
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				log.Print(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < 3000; i++ {
				ev := workload.Event{
					Stream: tuple.StreamID(rng.Intn(3)),
					Key:    tuple.Value(rng.Intn(300)),
				}
				if err := c.Feed(ev); err != nil {
					log.Print(err)
					return
				}
				if p == 0 && i == 1500 {
					// Live re-plan mid-traffic, through the protocol.
					if err := c.Migrate(plan.MustLeftDeep(2, 0, 1)); err != nil {
						log.Print(err)
						return
					}
					fmt.Println("producer 0 migrated the default query mid-stream")
				}
			}
		}(p)
	}
	wg.Wait()
	resultCount.Wait()

	st, err := admin.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("default query: input=%d output=%d transitions=%d completions=%d\n",
		st.Input, st.Output, st.Transitions, st.Completions)
	fmt.Printf("subscriber saw %d results streamed over TCP\n", seen)
}
