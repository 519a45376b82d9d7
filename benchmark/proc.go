package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it has
// been 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPUSeconds returns the user+system CPU time pid has consumed.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// procStatus returns the value of one "Key:\tvalue" line of
// /proc/<pid>/status.
func procStatus(pid int, key string) (string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// procPeakRSSMB returns pid's resident-set high-water mark (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	v, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}
