package sched

import (
	"testing"
	"testing/quick"

	"lighttrader/internal/c2c"
	"lighttrader/internal/cgra"
	"lighttrader/internal/compile"
	"lighttrader/internal/nn"
)

func testConfig(t testing.TB, ws, ds bool) *Config {
	t.Helper()
	spec := cgra.DefaultSpec()
	k, err := compile.Compile(nn.NewVanillaCNN(), spec)
	if err != nil {
		t.Fatal(err)
	}
	static, _ := StaticDVFSFor(spec, k, 1, 55)
	return &Config{
		Spec: spec, Kernel: k, Link: c2c.CustomC2C(),
		WorkloadScheduling: ws, DVFSScheduling: ds,
		StaticDVFS: static, PowerBudgetWatts: 55, PostProcessNanos: 310,
	}
}

func TestPickIssueBaselineBatchOne(t *testing.T) {
	cfg := testConfig(t, false, false)
	issue, v := PickIssueExplained(cfg, 10, 10_000_000, 55, cfg.StaticDVFS)
	if v != VerdictIssued {
		t.Fatal("no candidate under generous constraints")
	}
	if issue.Batch != 1 {
		t.Fatalf("baseline batch = %d, want 1 (WS off)", issue.Batch)
	}
	if issue.DVFS != cfg.StaticDVFS {
		t.Fatalf("baseline DVFS = %v, want static %v (DS off)", issue.DVFS, cfg.StaticDVFS)
	}
	if issue.SwitchNanos != 0 {
		t.Fatal("no switch expected from the static state")
	}
}

func TestPickIssueWSBatchesUnderBacklog(t *testing.T) {
	cfg := testConfig(t, true, false)
	issue, v := PickIssueExplained(cfg, 16, 10_000_000, 55, cfg.StaticDVFS)
	if v != VerdictIssued {
		t.Fatal("no candidate")
	}
	// PPW strictly improves with batch for a batch-insensitive kernel, so
	// Algorithm 1 must pick the largest feasible batch.
	if issue.Batch < 8 {
		t.Fatalf("WS batch = %d, want large batch under backlog", issue.Batch)
	}
	// Never more than the queue holds.
	issue, v = PickIssueExplained(cfg, 3, 10_000_000, 55, cfg.StaticDVFS)
	if v != VerdictIssued || issue.Batch > 3 {
		t.Fatalf("batch %d exceeds queue 3", issue.Batch)
	}
}

func TestPickIssueDeadlineInfeasible(t *testing.T) {
	cfg := testConfig(t, true, true)
	// 1 µs available time cannot fit a ≈117 µs inference at any state.
	if _, v := PickIssueExplained(cfg, 4, 1_000, 55, cfg.StaticDVFS); v != VerdictDeadlineInfeasible {
		t.Fatal("infeasible deadline produced a candidate")
	}
}

func TestPickIssuePowerInfeasible(t *testing.T) {
	cfg := testConfig(t, true, true)
	if _, v := PickIssueExplained(cfg, 4, 10_000_000, 0.1, cfg.StaticDVFS); v != VerdictPowerInfeasible {
		t.Fatal("infeasible power produced a candidate")
	}
}

func TestPickIssueExplainedVerdicts(t *testing.T) {
	cfg := testConfig(t, true, true)
	cases := []struct {
		name       string
		queued     int
		availNanos int64
		powerAvail float64
		want       Verdict
	}{
		{"issued", 4, 10_000_000, 55, VerdictIssued},
		// 1 µs cannot fit a ≈117 µs inference at any state.
		{"deadline", 4, 1_000, 55, VerdictDeadlineInfeasible},
		// Deadline-feasible candidates exist but 0.1 W blocks them all.
		{"power", 4, 10_000_000, 0.1, VerdictPowerInfeasible},
		// Deadline dominates: with no feasible time budget the verdict is
		// deadline-infeasible even when power would also have blocked.
		{"deadline-over-power", 4, 1_000, 0.1, VerdictDeadlineInfeasible},
		{"no-queue", 0, 10_000_000, 55, VerdictNoQueue},
	}
	for _, c := range cases {
		issue, v := PickIssueExplained(cfg, c.queued, c.availNanos, c.powerAvail, cfg.StaticDVFS)
		if v != c.want {
			t.Errorf("%s: verdict = %v, want %v", c.name, v, c.want)
		}
		if (v == VerdictIssued) != (issue.Batch > 0) {
			t.Errorf("%s: issue %+v inconsistent with verdict %v", c.name, issue, v)
		}
	}
}

// The free function decides from a table built for the call; on the grid
// PickIssue used to be compared on, it answers exactly like the
// model-evaluating loop it replaced (oracle_test.go).
func TestPickIssueMatchesExplained(t *testing.T) {
	cfg := testConfig(t, true, true)
	for _, avail := range []int64{1_000, 200_000, 10_000_000} {
		for _, power := range []float64{0.1, 3, 55} {
			issue, v := PickIssueExplained(cfg, 8, avail, power, cfg.StaticDVFS)
			want, wantV := oraclePickIssueExplained(cfg, 8, avail, power, cfg.StaticDVFS)
			if v != wantV || issue != want {
				t.Fatalf("avail=%d power=%v: PickIssueExplained (%+v,%v) != oracle (%+v,%v)",
					avail, power, issue, v, want, wantV)
			}
		}
	}
}

func TestPickIssueTightDeadlinePrefersFastState(t *testing.T) {
	cfg := testConfig(t, false, true)
	low := cfg.Spec.DVFSTable()[0]
	// At the lowest state inference takes ≈2.75× longer than at 2.2 GHz.
	// Pick a deadline only the upper states can meet (including the switch
	// delay from the low current state).
	atTop := cfg.TotalNanos(cgra.DVFSState{FreqGHz: 2.2, Volt: 1.16}, 1)
	deadline := atTop + cfg.Spec.DVFSSwitchNanos + atTop/12
	issue, v := PickIssueExplained(cfg, 1, deadline, 55, low)
	if v != VerdictIssued {
		t.Fatalf("no candidate for deadline %d", deadline)
	}
	if issue.DVFS.FreqGHz < 2.0 {
		t.Fatalf("picked %v for a deadline only fast states meet", issue.DVFS)
	}
	if issue.SwitchNanos <= 0 || issue.SwitchNanos > cfg.Spec.DVFSSwitchNanos {
		t.Fatalf("switch delay %d not charged within (0, %d]", issue.SwitchNanos, cfg.Spec.DVFSSwitchNanos)
	}
}

func TestPickIssueLoosDeadlinePrefersEfficientState(t *testing.T) {
	cfg := testConfig(t, false, true)
	// With an effectively unbounded deadline, PPW = 1/(lat·P) favours a
	// low-voltage state because power falls faster than latency rises.
	issue, v := PickIssueExplained(cfg, 1, 1_000_000_000, 55, cfg.Spec.DVFSTable()[0])
	if v != VerdictIssued {
		t.Fatal("no candidate")
	}
	if issue.DVFS.FreqGHz > 1.5 {
		t.Fatalf("picked %v; loose deadline should favour an efficient state", issue.DVFS)
	}
}

func TestPPWIncreasesWithBatch(t *testing.T) {
	cfg := testConfig(t, true, false)
	d := cfg.StaticDVFS
	if !(cfg.PPW(d, 4) > cfg.PPW(d, 1)) {
		t.Fatalf("PPW(4)=%v not above PPW(1)=%v for batch-insensitive kernel",
			cfg.PPW(d, 4), cfg.PPW(d, 1))
	}
}

func TestSavePowerRespectsSlack(t *testing.T) {
	cfg := testConfig(t, false, true)
	top := cgra.DVFSState{FreqGHz: 2.2, Volt: 1.16}
	// Huge slack: scale down.
	changes := NewTable(cfg).savePower(nil, []BusyAccel{{
		ID: 0, DVFS: top, Batch: 1, SlackNanos: 100_000_000, RemainingNanos: 100_000,
	}})
	if len(changes) != 1 || changes[0].DVFS.FreqGHz >= top.FreqGHz {
		t.Fatalf("no downscale with huge slack: %+v", changes)
	}
	// No slack: must not scale down.
	changes = NewTable(cfg).savePower(nil, []BusyAccel{{
		ID: 0, DVFS: top, Batch: 1, SlackNanos: 1_000, RemainingNanos: 100_000,
	}})
	if len(changes) != 0 {
		t.Fatalf("downscaled with no slack: %+v", changes)
	}
}

func TestRedistributeConsumesBudget(t *testing.T) {
	cfg := testConfig(t, false, true)
	low := cfg.Spec.DVFSTable()[0]
	busy := []BusyAccel{
		{ID: 0, DVFS: low, Batch: 1, SlackNanos: 1 << 40, RemainingNanos: 100_000},
		{ID: 1, DVFS: low, Batch: 1, SlackNanos: 1 << 40, RemainingNanos: 100_000},
	}
	// Generous residual budget: both accelerators should end at the top.
	changes := NewTable(cfg).redistribute(nil, busy, 50)
	if len(changes) != 2 {
		t.Fatalf("changes = %+v", changes)
	}
	for _, ch := range changes {
		if ch.DVFS.FreqGHz != cfg.Spec.MaxFreqGHz {
			t.Fatalf("accel %d ended at %v, want top", ch.ID, ch.DVFS)
		}
	}
	// No residual budget: no change.
	if changes := NewTable(cfg).redistribute(nil, busy, 0.01); len(changes) != 0 {
		t.Fatalf("redistributed with no budget: %+v", changes)
	}
	// A small budget upgrades at most partially.
	changes = NewTable(cfg).redistribute(nil, busy, 1.0)
	var totalInc float64
	for _, ch := range changes {
		totalInc += cfg.BusyPower(ch.DVFS) - cfg.BusyPower(low)
	}
	if totalInc >= 1.0 {
		t.Fatalf("power increase %.2f W exceeds the 1 W residual", totalInc)
	}
}

func TestStaticDVFSForTableIIIShape(t *testing.T) {
	spec := cgra.DefaultSpec()
	k, err := compile.Compile(nn.NewDeepLOB(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Frequency must be non-increasing in the accelerator count, for both
	// power conditions (Table III).
	for _, budget := range []float64{55, 20} {
		prev := spec.MaxFreqGHz + 1
		for _, n := range []int{1, 2, 4, 8, 16} {
			d, _ := StaticDVFSFor(spec, k, n, budget)
			if d.FreqGHz > prev {
				t.Fatalf("budget %v: freq rose from %.1f to %.1f at N=%d", budget, prev, d.FreqGHz, n)
			}
			prev = d.FreqGHz
		}
	}
	// Limited power at high N must force a lower clock than sufficient.
	ds, _ := StaticDVFSFor(spec, k, 16, 55)
	dl, _ := StaticDVFSFor(spec, k, 16, 20)
	if dl.FreqGHz >= ds.FreqGHz {
		t.Fatalf("limited (%v) not below sufficient (%v) at N=16", dl, ds)
	}
}

func TestTotalNanosComponents(t *testing.T) {
	cfg := testConfig(t, false, false)
	d := cfg.StaticDVFS
	tot := cfg.TotalNanos(d, 1)
	infer := cfg.Kernel.InferenceNanos(cfg.Spec, d, 1)
	if tot <= infer {
		t.Fatal("t_total must include transfer and post-processing")
	}
	if tot-infer > 100_000 {
		t.Fatalf("overheads %d ns implausibly large", tot-infer)
	}
	// Larger batches move more data and compute.
	if cfg.TotalNanos(d, 8) <= tot {
		t.Fatal("batch 8 not slower than batch 1")
	}
}

// TestQuickPickIssueFeasibility fuzzes Algorithm 1's inputs and checks
// every returned decision satisfies the deadline and power constraints it
// was given, and never exceeds the queue.
func TestQuickPickIssueFeasibility(t *testing.T) {
	cfg := testConfig(t, true, true)
	table := cfg.Spec.DVFSTable()
	f := func(queued uint8, availMicros uint16, powerCenti uint16, stateIdx uint8) bool {
		q := int(queued%32) + 1
		avail := int64(availMicros) * 1000
		power := float64(powerCenti) / 100 // 0..655 W
		current := table[int(stateIdx)%len(table)]
		issue, v := PickIssueExplained(cfg, q, avail, power, current)
		if v != VerdictIssued {
			return true
		}
		if issue.Batch < 1 || issue.Batch > q {
			return false
		}
		if issue.TotalNanos >= avail {
			return false
		}
		if cfg.BusyPower(issue.DVFS) >= power {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRedistributeBudget fuzzes Algorithm 2 and checks the total
// power increase never exceeds the residual budget.
func TestQuickRedistributeBudget(t *testing.T) {
	cfg := testConfig(t, false, true)
	table := cfg.Spec.DVFSTable()
	f := func(n uint8, stateIdx [4]uint8, budgetCenti uint16) bool {
		count := int(n%4) + 1
		busy := make([]BusyAccel, count)
		var before float64
		for i := range busy {
			d := table[int(stateIdx[i])%len(table)]
			busy[i] = BusyAccel{ID: i, DVFS: d, Batch: 1, SlackNanos: 1 << 40, RemainingNanos: 1 << 20}
			before += cfg.BusyPower(d)
		}
		budget := float64(budgetCenti) / 100
		changes := NewTable(cfg).redistribute(nil, busy, budget)
		after := before
		for _, ch := range changes {
			after += cfg.BusyPower(ch.DVFS) - cfg.BusyPower(busy[ch.ID].DVFS)
			// Upgrades only.
			if ch.DVFS.FreqGHz <= busy[ch.ID].DVFS.FreqGHz {
				return false
			}
		}
		return after-before <= budget+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSavePowerOnlyDown fuzzes the saving step: changes only ever
// lower the state and only within slack.
func TestQuickSavePowerOnlyDown(t *testing.T) {
	cfg := testConfig(t, false, true)
	table := cfg.Spec.DVFSTable()
	f := func(stateIdx uint8, slackMicros uint16, remMicros uint16) bool {
		d := table[int(stateIdx)%len(table)]
		a := BusyAccel{ID: 0, DVFS: d, Batch: 1,
			SlackNanos: int64(slackMicros) * 1000, RemainingNanos: int64(remMicros) * 1000}
		for _, ch := range NewTable(cfg).savePower(nil, []BusyAccel{a}) {
			if ch.DVFS.FreqGHz >= d.FreqGHz {
				return false
			}
			stretched := int64(float64(a.RemainingNanos) * d.FreqGHz / ch.DVFS.FreqGHz)
			extra := stretched - a.RemainingNanos + cfg.Spec.DVFSSwitchNanos
			// Consuming the slack exactly is legal: the stretched batch then
			// completes at its deadline, which still counts as on time.
			if extra > a.SlackNanos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinTotalNanosIsTableFloor(t *testing.T) {
	cfg := testConfig(t, true, true)
	min := NewTable(cfg).MinTotalNanos()
	if min <= 0 {
		t.Fatalf("MinTotalNanos = %d, want > 0", min)
	}
	for _, d := range cfg.Spec.DVFSTable() {
		if got := cfg.TotalNanos(d, 1); got < min {
			t.Fatalf("state %.2f GHz: TotalNanos(1) = %d below reported floor %d",
				d.FreqGHz, got, min)
		}
	}
	// With DS off only the static state is reachable, so the floor is its
	// batch-1 latency exactly.
	static := testConfig(t, true, false)
	if got, want := NewTable(static).MinTotalNanos(), static.TotalNanos(static.StaticDVFS, 1); got != want {
		t.Fatalf("static floor = %d, want %d", got, want)
	}
}
