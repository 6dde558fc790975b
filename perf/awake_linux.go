package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// A trading host runs with idle=poll: its cores never halt, so a packet never
// pays for waking one. This benchmark's host is a shared virtual machine whose
// halted vCPUs the hypervisor wakes quickly or slowly depending on what its
// neighbours are doing, which showed as episodes of minutes in which the hot
// latencies read 20–40 % higher. keepAwake gives the benchmark the trading
// host's setting without touching the kernel: one child process per CPU that
// spins under SCHED_IDLE, the policy that runs only when nothing else on the
// CPU wants to and is preempted the moment something does.

const schedIdle = 5 // SCHED_IDLE of sched(7)

// keepAwake starts the spinners and returns the function that stops them and
// waits until each has ended.
func keepAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf: cannot keep the CPUs awake:", err)
		return func() {}
	}
	var children []*exec.Cmd
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(self, "-spin", strconv.Itoa(cpu), strconv.Itoa(os.Getpid()))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "perf: cannot keep the CPUs awake:", err)
			break
		}
		children = append(children, cmd)
	}
	return func() {
		for _, c := range children {
			_ = c.Process.Kill() // fails only if the spinner has ended already
		}
		for _, c := range children {
			_ = c.Wait() // "signal: killed" is the expected end
		}
	}
}

// spin is the child: it drops to SCHED_IDLE, pins itself to cpu and spins
// until it is killed or the process that started it is no longer its parent.
// If the kernel refuses the policy it exits at once, because a spinner at
// normal priority would take the CPU from the program under test.
func spin(cpu int, parent string) {
	runtime.LockOSThread()
	ppid, err := strconv.Atoi(parent)
	var mask [16]uint64 // 1024 CPUs, the kernel's default limit
	if err != nil || cpu/64 >= len(mask) {
		fmt.Fprintln(os.Stderr, "perf: -spin takes a CPU number and the parent's process id")
		os.Exit(2)
	}
	mask[cpu/64] = 1 << (cpu % 64)
	// Unpinned, the spinner still keeps one CPU awake at a time.
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var priority int32 // sched_param: SCHED_IDLE takes priority 0
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		fmt.Fprintln(os.Stderr, "perf: SCHED_IDLE refused, the CPUs are left to halt:", errno)
		os.Exit(1)
	}
	for os.Getppid() == ppid {
		for i := 0; i < 1<<20; i++ {
			spinSink++
		}
	}
}

var spinSink uint64
