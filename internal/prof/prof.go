// Package prof wires the conventional -cpuprofile/-memprofile flags into
// the repo's commands so tick-path hot spots can be inspected with
// `go tool pprof` against a real run (back-test, serving sweep, or the
// experiment harness) rather than only against micro-benchmarks.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths a command's flag set parsed.
type Flags struct {
	cpuPath, memPath string
}

// Register declares -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpuPath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memPath, "memprofile", "", "write a heap profile to this file at exit")
	return f
}

// Start begins profiling per the parsed flags and returns a stop function
// to run at exit. An empty path disables that profile. The stop function
// ends the CPU profile and writes the heap profile (after a GC, so it
// reflects live objects, not garbage).
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if f.cpuPath != "" {
		cpuFile, err = os.Create(f.cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.memPath != "" {
			out, err := os.Create(f.memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer out.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(out); err != nil {
				fmt.Fprintln(os.Stderr, "prof: write heap profile:", err)
			}
		}
	}, nil
}
