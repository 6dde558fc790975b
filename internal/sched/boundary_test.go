package sched

import (
	"testing"

	"lighttrader/internal/cgra"
)

// Algorithm 2's contract is "fully consuming the constrained power": an
// upgrade whose cost equals the remaining budget exactly must be taken, and
// only a strict overshoot (beyond float tolerance) rejected.
func TestRedistributeConsumesExactBudget(t *testing.T) {
	cfg := testConfig(t, true, true)
	table := cfg.Spec.DVFSTable()
	cur, next := table[3], table[4]
	busy := []BusyAccel{{ID: 0, DVFS: cur, Batch: 4, SlackNanos: 1 << 40, RemainingNanos: 1 << 30}}
	inc := cfg.BusyPower(next) - cfg.BusyPower(cur)

	// Budget exactly equal to the one-step cost: the step must be taken.
	changes := NewTable(cfg).redistribute(nil, busy, inc)
	if len(changes) != 1 || changes[0].DVFS != next {
		t.Fatalf("exact-budget upgrade rejected: changes = %+v, want one step to %.1f GHz",
			changes, next.FreqGHz)
	}

	// Budget epsilon short of the cost: the step must be rejected — PowerEps
	// absorbs float noise, not a real shortfall.
	if changes := NewTable(cfg).redistribute(nil, busy, inc-1e-6); len(changes) != 0 {
		t.Fatalf("under-budget upgrade accepted: changes = %+v", changes)
	}
}

// The accepted upgrades must never spend more than the offered budget plus
// the float tolerance, no matter how many coalesced steps are taken.
func TestRedistributeNeverOvershootsBudget(t *testing.T) {
	cfg := testConfig(t, true, true)
	table := cfg.Spec.DVFSTable()
	busy := []BusyAccel{
		{ID: 0, DVFS: table[0], Batch: 2, SlackNanos: 1 << 40, RemainingNanos: 1 << 30},
		{ID: 1, DVFS: table[1], Batch: 8, SlackNanos: 1 << 40, RemainingNanos: 1 << 30},
	}
	for _, avail := range []float64{0, 0.1, 0.5, 1, 2, 5, 20} {
		state := map[int]cgra.DVFSState{0: table[0], 1: table[1]}
		var spent float64
		for _, ch := range NewTable(cfg).redistribute(nil, busy, avail) {
			spent += cfg.BusyPower(ch.DVFS) - cfg.BusyPower(state[ch.ID])
			state[ch.ID] = ch.DVFS
		}
		if spent > avail+1e-6 {
			t.Fatalf("avail %.3f W: redistribution spent %.9f W", avail, spent)
		}
	}
}

// A scale-down may consume the in-flight slack exactly: the stretched batch
// then completes at its deadline, which the simulator counts as on time.
func TestSavePowerExactSlackBoundary(t *testing.T) {
	cfg := testConfig(t, true, true)
	table := cfg.Spec.DVFSTable()
	cur := table[len(table)-1]
	floor := table[0]
	remaining := int64(200_000)
	extra := cfg.RetimedRemainingNanos(remaining, cur, floor) - remaining

	// Slack exactly equal to the stretch cost of the floor state: the saving
	// step must scale all the way down to the floor.
	busy := []BusyAccel{{ID: 0, DVFS: cur, Batch: 1, SlackNanos: extra, RemainingNanos: remaining}}
	changes := NewTable(cfg).savePower(nil, busy)
	if len(changes) != 1 || changes[0].DVFS != floor {
		t.Fatalf("exact-slack scale-down rejected: changes = %+v, want floor %.1f GHz",
			changes, floor.FreqGHz)
	}

	// One nanosecond less and the floor state no longer fits; whatever state
	// is chosen instead (if any) must cost no more than the slack.
	busy[0].SlackNanos = extra - 1
	for _, ch := range NewTable(cfg).savePower(nil, busy) {
		if ch.DVFS == floor {
			t.Fatalf("floor state accepted with insufficient slack")
		}
		got := cfg.RetimedRemainingNanos(remaining, cur, ch.DVFS) - remaining
		if got > busy[0].SlackNanos {
			t.Fatalf("scale-down to %.1f GHz costs %d ns > slack %d ns",
				ch.DVFS.FreqGHz, got, busy[0].SlackNanos)
		}
	}
}
