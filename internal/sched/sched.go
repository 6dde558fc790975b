// Package sched implements the paper's proactive scheduling algorithms
// (§III-D): performance-per-watt (PPW) driven workload scheduling
// (Algorithm 1: jointly choosing batch size and DVFS state for each issued
// batch under deadline and power constraints) and DVFS scheduling
// (Algorithm 2: redistributing the residual power budget across busy
// accelerators by marginal PPW). This file defines the cost model; Table
// (table.go) profiles it once and is where both algorithms run; Board
// (board.go) is the runtime state they act on — the accelerator array and
// power ledger both execution engines (internal/core on simulator event
// time, internal/serve behind a mutex) drive.
package sched

import (
	"lighttrader/internal/c2c"
	"lighttrader/internal/cgra"
)

// Config selects the scheduling features under evaluation (the four Fig. 13
// configurations) and carries the hardware models decisions are made
// against.
type Config struct {
	Spec   cgra.Spec
	Kernel *cgra.Kernel
	Link   c2c.Link
	// WorkloadScheduling enables Algorithm 1's batch exploration over
	// DefaultBatchOptions (WS); without it every issue is batch 1.
	WorkloadScheduling bool
	// DVFSScheduling enables DVFS state exploration and Algorithm 2's
	// power redistribution (DS).
	DVFSScheduling bool
	// StaticDVFS is the fixed operating point when DS is disabled,
	// chosen conservatively for the accelerator count (Table III).
	StaticDVFS cgra.DVFSState
	// PowerBudgetWatts is the total accelerator power budget (card budget
	// minus FPGA and peripherals).
	PowerBudgetWatts float64
	// PostProcessNanos is the trading-engine and order-encoding time after
	// inference completes, part of t_total.
	PostProcessNanos int64
}

// DefaultBatchOptions is the batch ladder explored by Algorithm 1.
func DefaultBatchOptions() []int { return []int{1, 2, 4, 8, 16} }

// TotalNanos is t_total of Algorithm 1: C2C input transfer + inference +
// result return + post-processing, for a batch at a DVFS state.
func (c *Config) TotalNanos(d cgra.DVFSState, batch int) int64 {
	tTrans := c.Link.TransferNanos(c.Kernel.InputBytes*int64(batch)) +
		c.Link.TransferNanos(c.Kernel.OutputBytes*int64(batch))
	tInfer := c.Kernel.InferenceNanos(c.Spec, d, batch)
	return tTrans + tInfer + c.PostProcessNanos
}

// BusyPower is the accelerator draw while executing this kernel at d.
func (c *Config) BusyPower(d cgra.DVFSState) float64 {
	return c.Spec.Power(d, c.Kernel.Activity)
}

// PPW is the paper's performance-per-watt metric:
// batch_size / (latency · consumed power), in 1/(s·W).
func (c *Config) PPW(d cgra.DVFSState, batch int) float64 {
	return ppw(c.TotalNanos(d, batch), c.BusyPower(d), batch)
}

// ppw is the PPW of a batch with the given t_total and busy draw.
func ppw(totalNanos int64, watts float64, batch int) float64 {
	lat := float64(totalNanos) / 1e9
	if lat <= 0 || watts <= 0 {
		return 0
	}
	return float64(batch) / (lat * watts)
}

// Issue is Algorithm 1's decision for one idle accelerator.
type Issue struct {
	Batch int
	DVFS  cgra.DVFSState
	// SwitchNanos is the DVFS transition stall before the batch starts.
	SwitchNanos int64
	// TotalNanos is the projected t_total including SwitchNanos.
	TotalNanos int64
}

// Verdict explains Algorithm 1's outcome for one issue attempt — the
// decision reason observability probes attach to defer events.
type Verdict uint8

const (
	// VerdictIssued: a feasible (dvfs, batch) candidate was selected.
	VerdictIssued Verdict = iota
	// VerdictDeadlineInfeasible: every candidate missed the deadline — no
	// state is fast enough for the oldest tensor's remaining time.
	VerdictDeadlineInfeasible
	// VerdictPowerInfeasible: at least one candidate met the deadline but
	// the unallocated power budget blocked all of them (Algorithm 2's
	// power-saving step may free budget and make a retry succeed).
	VerdictPowerInfeasible
	// VerdictNoQueue: nothing was queued; there was no decision to make.
	VerdictNoQueue
	// VerdictDegradedModel: the full model was infeasible but a cheaper
	// model tier admitted the batch — the issue carries the tier's cost
	// model and Decision.Tier names the tier. An engine treats it exactly
	// like VerdictIssued except for degrade accounting (it is an answered
	// query, not a miss).
	VerdictDegradedModel
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictIssued:
		return "issued"
	case VerdictDeadlineInfeasible:
		return "deadline-infeasible"
	case VerdictPowerInfeasible:
		return "power-infeasible"
	case VerdictNoQueue:
		return "no-queue"
	case VerdictDegradedModel:
		return "degraded-model"
	default:
		return "Verdict(?)"
	}
}

// PickIssueExplained is Algorithm 1 as a free function, for a caller with no
// policy at hand: it profiles cfg into a Table and decides once, so each
// call pays a table build. queued is the number of unscheduled input tensors
// in the offload engine, availNanos the remaining available time of the
// oldest queued tensor, powerAvail the unallocated power budget, and current
// the accelerator's present DVFS state (a different target state stalls for
// the switch delay). A verdict other than VerdictIssued says why
// candidate_queue ended empty (see Table.pick).
func PickIssueExplained(cfg *Config, queued int, availNanos int64, powerAvail float64, current cgra.DVFSState) (Issue, Verdict) {
	dec := NewPPWScheduler(cfg).Decide(SchedContext{
		Queued: queued, AvailNanos: availNanos, PowerAvailWatts: powerAvail, Current: current,
	})
	return dec.Issue, dec.Verdict
}

// PowerEps is the watt-scale float tolerance the power-budget comparisons
// use: an upgrade whose cost equals the remaining budget (to within
// accumulated float error) is "fully consuming the constrained power", not
// exceeding it. Draws are O(1–10) W, so 1e-9 W is far below any modelled
// quantity yet far above double-precision rounding noise.
const PowerEps = 1e-9

// BusyAccel is Algorithm 2's view of one non-idle accelerator.
type BusyAccel struct {
	ID int
	// DVFS is the current operating point.
	DVFS cgra.DVFSState
	// Batch is the in-flight batch size.
	Batch int
	// SlackNanos is the margin before the in-flight batch's deadline; a
	// scale-down must not consume it, and scale-ups must cover their own
	// switch stall.
	SlackNanos int64
	// RemainingNanos is the projected time to completion at DVFS.
	RemainingNanos int64
}

// Change is a DVFS adjustment Algorithm 2 requests.
type Change struct {
	ID   int
	DVFS cgra.DVFSState
}

// RetimedRemainingNanos is the single source of the DVFS retime rule: when a
// busy accelerator switches from state `from` to `to` with `remaining` work
// left, the work stalls for the switch delay and then proceeds scaled by the
// frequency ratio. Callers add the result to the decision instant to get the
// new completion time. from must differ from to (a no-op switch has no stall).
func (c *Config) RetimedRemainingNanos(remaining int64, from, to cgra.DVFSState) int64 {
	return c.Spec.DVFSSwitchNanos + int64(float64(remaining)*from.FreqGHz/to.FreqGHz)
}

// staticGuardBand is the safety margin the static configuration applies on
// top of the worst-case all-accelerators-active assumption (§IV-C: "we set
// the clock frequency and voltage of the AI accelerator conservatively").
// A fixed operating point cannot react to workload shifts, so it must
// guard against model-activity and supply variation; DVFS scheduling's
// advantage is precisely that it spends this margin dynamically.
const staticGuardBand = 1.35

// StaticDVFSFor returns the conservative fixed operating point for n
// accelerators sharing budgetWatts, assuming all run simultaneously at the
// kernel's activity plus a guard band — the Table III configuration used
// when DVFS scheduling is disabled. The boolean is false when even the
// lowest state exceeds the per-accelerator budget; callers should then
// still use the lowest state (the hardware cannot go lower).
func StaticDVFSFor(spec cgra.Spec, kernel *cgra.Kernel, n int, budgetWatts float64) (cgra.DVFSState, bool) {
	per := budgetWatts / float64(n) / staticGuardBand
	if d, ok := spec.MaxFreqUnderPower(per, kernel.Activity); ok {
		return d, true
	}
	return spec.DVFSTable()[0], false
}
