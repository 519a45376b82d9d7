package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// harness is what stays fixed for the whole process: the binary to
// re-execute as the server, the CPU split, and the scratch root.
type harness struct {
	exe string
	// serverCPU and genCPUs are the CPU split: the server child alone on
	// one CPU, the generator (this process) on up to two others. pin is
	// false when the machine allows fewer than two CPUs or affinity is
	// unavailable; the child still runs with GOMAXPROCS=1.
	pin       bool
	serverCPU int
	genCPUs   []int
	// tmp is where WAL and spill directories live; close removes it.
	tmp  string
	base time.Time
}

// scratchRoot picks the parent of the WAL and spill directories: memory
// (/dev/shm) when the machine has it, so the fsync latency of a shared
// VM's disk is not measured — on the disk of the box that produced
// NOISE.md it halved ingest-durable's throughput for seconds at a time —
// and the output directory otherwise.
func scratchRoot(outDir string) string {
	const shm = "/dev/shm"
	if dir, err := os.MkdirTemp(shm, "jisc-benchmark-probe-"); err == nil {
		os.Remove(dir)
		return shm
	}
	return outDir
}

func newHarness(outDir, scratch string) (*harness, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if scratch == "" {
		scratch = scratchRoot(outDir)
	}
	h := &harness{exe: exe, base: time.Now()}
	if h.tmp, err = os.MkdirTemp(scratch, "jisc-benchmark-"); err != nil {
		return nil, err
	}
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: not pinning (allowed CPUs %v, %v); expect noisier numbers\n", cpus, err)
		return h, nil
	}
	h.serverCPU, h.genCPUs = cpus[0], cpus[1:min(3, len(cpus))]
	if err := pinSelf(h.genCPUs); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: not pinning: %v\n", err)
		return h, nil
	}
	runtime.GOMAXPROCS(len(h.genCPUs))
	h.pin = true
	return h, nil
}

// close removes the scratch directory.
func (h *harness) close() { os.RemoveAll(h.tmp) }

// now is the monotonic clock every timestamp of a repetition uses.
func (h *harness) now() int64 { return int64(time.Since(h.base)) }

// child is one running server process.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	addr   string
	pinned bool
}

// spawn starts the server child for sp with its files under dir: the
// benchmark binary in serve mode, GOMAXPROCS=1, pinned to serverCPU.
func (h *harness) spawn(sp *spec, dir string) (*child, error) {
	args := []string{"-serve", "-workload", sp.name, "-dir", dir}
	cmd := exec.Command(h.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if h.pin {
		err = startOnCPUs(cmd.Start, []int{h.serverCPU})
	} else {
		err = cmd.Start()
	}
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ADDR ")
	if err != nil || !ok {
		c.stop()
		return nil, fmt.Errorf("server child did not announce its address (%q, %v)", line, err)
	}
	c.addr = addr
	if h.pin {
		allowed, _ := procStatus(cmd.Process.Pid, "Cpus_allowed_list")
		c.pinned = allowed == strconv.Itoa(h.serverCPU)
	}
	return c, nil
}

// stop asks the child to exit by closing its stdin, waits for it, and
// kills it if it does not leave within ten seconds.
func (c *child) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("server child ignored shutdown and was killed")
	}
}
