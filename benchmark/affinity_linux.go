package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask covering 1024 CPUs.
type cpuMask [16]uint64

func schedAffinity(trap uintptr, tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on, ascending.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &m); err != nil {
		return nil, err
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

func maskOf(cpus []int) *cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return &m
}

// pinSelf pins every thread of this process to cpus. Threads the Go
// runtime starts later are cloned from pinned ones and inherit the mask.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, maskOf(cpus)); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}

// startOnCPUs starts a child from an OS thread narrowed to cpus, so the
// child inherits the mask, then gives the thread its own mask back.
func startOnCPUs(start func() error, cpus []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &old); err != nil {
		return err
	}
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, 0, maskOf(cpus)); err != nil {
		return err
	}
	err := start()
	if rerr := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, 0, &old); err == nil {
		err = rerr
	}
	return err
}
