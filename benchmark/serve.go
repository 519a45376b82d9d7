package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"jisc/internal/admission"
	"jisc/internal/core"
	"jisc/internal/durable"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
	"jisc/internal/server"
)

// subscriberBuffer is the one deviation from jiscd's defaults: the
// stock 1024-line subscriber buffer (not a jiscd flag) drops the
// subscriber at benchmark speed, so a measurement could not even count
// its results. subs_dropped must still end at 0.
const subscriberBuffer = 1 << 20

// engineConfig is the workload's engine as jiscd would build it from
// its flags; dir holds the spill segments when the workload spills.
func engineConfig(sp *spec, dir string) engine.Config {
	cfg := engine.Config{
		Plan:        plan.MustLeftDeep(initialOrder(sp.streams)...),
		WindowSize:  sp.window,
		Strategy:    core.New(),
		StateBudget: sp.stateBudget,
	}
	if sp.stateBudget > 0 {
		cfg.SpillDir = filepath.Join(dir, "spill")
	}
	return cfg
}

// runtimeConfig is jiscd's runtime around engineConfig: queue 4096,
// blocking overflow, the workload's shard count.
func runtimeConfig(sp *spec, dir string) runtime.Config {
	return runtime.Config{
		Engine:    engineConfig(sp, dir),
		QueueSize: 4096,
		Overflow:  runtime.Block,
		Shards:    sp.shards,
	}
}

func durableOptions(sp *spec, dir string) durable.Options {
	if !sp.wal {
		return durable.Options{}
	}
	return durable.Options{Dir: filepath.Join(dir, "wal"), Fsync: durable.FsyncBatch}
}

func admissionConfig(sp *spec) admission.Config {
	return admission.Config{InflightBytes: sp.inflightBytes}
}

// serverConfig is the server a repetition measures: jiscd's defaults
// plus the workload's flags, and subscriberBuffer.
func serverConfig(sp *spec, dir string) server.Config {
	return server.Config{
		Pipeline:         runtimeConfig(sp, dir),
		Durable:          durableOptions(sp, dir),
		Admission:        admissionConfig(sp),
		SubscriberBuffer: subscriberBuffer,
	}
}

// serve is the child process: it runs the workload's server on a
// loopback port, announces the address on stdout, and exits when its
// stdin closes.
func serve(sp *spec, dir string) error {
	srv, err := server.New(serverConfig(sp, dir))
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	fmt.Printf("ADDR %s\n", srv.Addr())
	_, err = io.Copy(io.Discard, os.Stdin)
	return err
}
