//go:build !linux

package main

// keepAwake needs Linux's SCHED_IDLE; elsewhere the CPUs are left to halt.
func keepAwake() (stop func()) { return func() {} }

func spin(int, string) {}
