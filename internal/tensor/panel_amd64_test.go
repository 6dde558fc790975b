package tensor

import (
	"os"
	"reflect"
	"regexp"
	"testing"
)

func init() {
	if hasAVX2() {
		panelKernels = append(panelKernels, panelKernel{"asm", panelAsm})
	}
}

func sameFunc(f, g any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer() }

// TestPanelDispatch: start-up picks the assembly exactly when the CPU and the
// OS support it — hasAVX2 checked against the kernel's own reading of the CPU
// flags where there is one — so on a host that should run the "asm" legs of
// the other tests they cannot be silently missing.
func TestPanelDispatch(t *testing.T) {
	want := panelGo
	if hasAVX2() {
		want = panelAsm
	}
	if !sameFunc(panel, want) {
		t.Fatalf("hasAVX2() = %v, but MulAddPanel dispatches to the other kernel", hasAVX2())
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	if listed := regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(info); listed != hasAVX2() {
		t.Fatalf("/proc/cpuinfo lists avx2: %v, hasAVX2() = %v", listed, hasAVX2())
	}
}
