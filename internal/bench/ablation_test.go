package bench

import (
	"fmt"
	"strings"
	"testing"
)

func TestAblationPrecision(t *testing.T) {
	rows := AblationPrecision()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 1.0 {
			t.Fatalf("%s: INT8 speedup %.2f not above 1", r.Model, r.Speedup)
		}
		if r.Speedup > 4.0 {
			t.Fatalf("%s: INT8 speedup %.2f exceeds the 4x lane widening", r.Model, r.Speedup)
		}
		if r.INT8Bytes*2 != r.BF16Bytes {
			t.Fatalf("%s: INT8 input %d not half of BF16 %d", r.Model, r.INT8Bytes, r.BF16Bytes)
		}
	}
	if out := RenderAblationPrecision(rows); !strings.Contains(out, "INT8") {
		t.Fatal("render broken")
	}
}

func TestAblationPolicy(t *testing.T) {
	rows := AblationPolicy(shortTraffic(t))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, p := range []string{"ppw", "fcfs", "greedy"} {
			if _, ok := r.MissRate[p]; !ok {
				t.Fatalf("missing policy %s", p)
			}
		}
		// PPW must not be meaningfully worse on misses than the single-issue
		// fcfs (it trades a little latency for throughput and efficiency).
		if r.MissRate["ppw"] > r.MissRate["fcfs"]+0.02 {
			t.Fatalf("%s N=%d: ppw miss %.3f ≫ fcfs %.3f",
				r.Model, r.NumAccels, r.MissRate["ppw"], r.MissRate["fcfs"])
		}
		// And it must be no less energy-efficient than fcfs.
		if r.EnergyJ["ppw"] > r.EnergyJ["fcfs"]*1.05 {
			t.Fatalf("%s N=%d: ppw energy %.1f above fcfs %.1f",
				r.Model, r.NumAccels, r.EnergyJ["ppw"], r.EnergyJ["fcfs"])
		}
	}
	_ = RenderAblationPolicy(rows)
}

func TestAblationSwitchDelay(t *testing.T) {
	rows := AblationSwitchDelay(shortTraffic(t))
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Miss rate must not improve as switching gets more expensive.
	if rows[len(rows)-1].MissRate+1e-9 < rows[0].MissRate {
		t.Fatalf("50µs switch (%.4f) beat free switch (%.4f)",
			rows[len(rows)-1].MissRate, rows[0].MissRate)
	}
	_ = RenderAblationSwitchDelay(rows)
}

// TestAblationBurstiness checks §II-C's trend at the length ltbench
// reports: response rate falls as the order flow approaches criticality.
// The trend belongs to a stream long enough to hold a near-critical
// cascade — seed 1 cut to shortTraffic's length holds none, and its
// near-critical row is not below the calm one — so it is asserted on the
// full-length stream for each of seeds 1–4, not on one seed that happens
// to pass.
func TestAblationBurstiness(t *testing.T) {
	if testing.Short() {
		t.Skip("replays four full-length streams per branching ratio; skipped in -short")
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rows := AblationBurstiness(DefaultTraffic(paperSeconds, seed), 20_000_000)
			if len(rows) != 5 {
				t.Fatalf("rows = %d", len(rows))
			}
			if rows[len(rows)-1].ResponseRate >= rows[0].ResponseRate {
				t.Fatalf("near-critical flow (%.3f) not below calm flow (%.3f)",
					rows[len(rows)-1].ResponseRate, rows[0].ResponseRate)
			}
			t.Logf("calm %.3f → near-critical %.3f", rows[0].ResponseRate, rows[len(rows)-1].ResponseRate)
			_ = RenderAblationBurstiness(rows)
		})
	}
}

func TestAblationPrecisionDatapath(t *testing.T) {
	for _, r := range AblationPrecision() {
		if r.DatapathSpeedup < 1.2 { // DeepLOB's LSTM is stall-dominated, not lane-bound
			t.Fatalf("%s: datapath speedup %.2f shows no lane-widening benefit", r.Model, r.DatapathSpeedup)
		}
	}
}
