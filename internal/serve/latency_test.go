package serve

import (
	"testing"
)

// TestServeLatencyHistogram checks the runtime's merged per-query dispatch
// histogram counts every served query across lanes.
func TestServeLatencyHistogram(t *testing.T) {
	syms := []string{"AAA", "BBB", "CCC"}
	packets := buildMarket(t, syms, 40)
	srv, _ := runServer(t, buildMulti(t, syms), packets, Config{Lanes: 2})
	sum := srv.Latency()
	if sum.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
	st := srv.Stats()
	if sum.Count != uint64(st.Served+st.Late) {
		t.Fatalf("latency count %d != served+late %d", sum.Count, st.Served+st.Late)
	}
	if sum.P999 < sum.P50 || sum.Max < sum.P999 {
		t.Fatalf("inconsistent summary: %+v", sum)
	}
}
