//go:build !linux

package main

import "errors"

var errNoAffinity = errors.New("CPU affinity is only implemented on linux")

func allowedCPUs() ([]int, error) { return nil, errNoAffinity }

func pinSelf([]int) error { return errNoAffinity }

func startOnCPUs(func() error, []int) error { return errNoAffinity }
