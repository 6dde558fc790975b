package sched

import (
	"lighttrader/internal/cgra"
	"lighttrader/internal/sim"
)

// Slot is the Board's record of one modelled accelerator: its operating
// point and instantaneous draw and — while a batch is in flight — the batch
// size, the projected completion, the earliest deadline in the batch, the
// model tier it was admitted against and how often it has been retimed.
type Slot struct {
	State cgra.DVFSState
	Busy  bool
	// Draw is the present draw: the admitting tier's busy power at State
	// while a batch is in flight, the Spec-level idle power otherwise.
	Draw  float64
	Batch int
	// DoneNanos is the modelled completion of the in-flight batch: commit
	// instant + pre-pipeline + t_total, moved by every DVFS change. It keeps
	// the last batch's completion after Retire.
	DoneNanos int64
	// MinDeadlineNanos is the earliest deadline inside the in-flight batch —
	// the slack bound a saving-step scale-down must not violate.
	MinDeadlineNanos int64
	// Retimes counts DVFS changes applied to the in-flight batch. Redistribute
	// only touches a batch with none, to avoid switch-stall thrash (§III-D:
	// "frequent changing in DVFS policy within a short time interval increases
	// the risk of a power failure as well as the overall latency").
	Retimes int
	// Tier is the model tier of the in-flight batch: 0 the primary model,
	// t > 0 the t-th degrade-ladder rung — the cost model its draw and any
	// retime are accounted with.
	Tier int
	// Switches counts at-issue operating-point changes, Saves scale-downs by
	// the saving step, Redistributes scale-ups from residual budget, Parks
	// returns to the floor state at retire.
	Switches, Saves, Redistributes, Parks int64
}

// Board is the accelerator array and power ledger of the paper's proactive
// scheduler (§III-D): the one implementation of the state both execution
// engines act on. It owns every rule that reads or moves an operating point
// or a watt — boot state, busy/idle draw, unallocated budget, Algorithm 2's
// busy views and retime eligibility, the DVFS retime itself, issue commit,
// retire-and-park, and residual-budget redistribution with the idle-pickup
// reserve — emits every DVFS event, and runs the admission step (Admit:
// decide, save and retry, degrade-ladder walk, commit) with its counters.
// Queue discipline, the save-retry rate limit, when Redistribute runs,
// clocks and locking belong to the engine. A Board is not goroutine-safe:
// the simulator is single-threaded and the serving governor holds its mutex.
type Board struct {
	cfg *Config
	// table is cfg's profiled Table — every watt the ledger prices and both
	// steps of Algorithm 2 read it. tiers are the degrade ladder's (tier
	// t > 0 is tiers[t-1]); every tier shares cfg's Spec-level idle model and
	// power budget, so cross-tier draw sums stay meaningful.
	table *Table
	tiers []*Table
	pre   int64
	// dvfs gates Algorithm 2 (save, redistribute, park); without it the Board
	// is a transactional power meter under Algorithm 1 admission.
	dvfs  bool
	floor cgra.DVFSState
	emit  func(sim.DVFSEvent)

	slots []Slot
	// scratch backs the busy views Algorithm 2 reads, changes what it
	// answers; reused across calls, never retained.
	scratch []BusyAccel
	changes []Change
	// draw is Σ Slot.Draw in slot order (summed afresh after every change so
	// both engines see one float value); maxDraw its high-water mark.
	draw, maxDraw float64

	// retries counts power-infeasible decisions Admit ran the saving step
	// for, rescues the retries that then issued, degrades the batches the
	// ladder admitted; tierIssues[t] counts batches issued against tier t
	// (nil without a ladder).
	retries, rescues, degrades int64
	tierIssues                 []int64
}

// NewBoard builds the ledger for n accelerators running cfg's kernel.
// prePipelineNanos is charged between a commit instant and the accelerator
// start; dvfs enables Algorithm 2; emit receives every DVFS event.
func NewBoard(cfg *Config, tierCfgs []*Config, n int, prePipelineNanos int64, dvfs bool, emit func(sim.DVFSEvent)) *Board {
	b := &Board{
		cfg: cfg, table: NewTable(cfg), pre: prePipelineNanos, dvfs: dvfs,
		emit: emit, slots: make([]Slot, n),
	}
	b.floor = b.table.states[0]
	for _, tc := range tierCfgs {
		b.tiers = append(b.tiers, NewTable(tc))
	}
	if len(b.tiers) > 0 {
		b.tierIssues = make([]int64, len(b.tiers)+1)
	}
	b.Reset()
	return b
}

// Reset returns every accelerator to the idle boot operating point: the
// static Table III point without DVFS scheduling, the floor state with it
// (DS parks idle accelerators at the power floor), and zeroes the counters.
func (b *Board) Reset() {
	start := b.cfg.StaticDVFS
	if b.cfg.DVFSScheduling {
		start = b.floor
	}
	for i := range b.slots {
		b.slots[i] = Slot{State: start, Draw: b.cfg.Spec.IdlePower(start)}
	}
	b.maxDraw = 0
	b.retries, b.rescues, b.degrades = 0, 0, 0
	clear(b.tierIssues)
	b.note()
}

// Len returns the accelerator count.
func (b *Board) Len() int { return len(b.slots) }

// Slot returns a copy of one accelerator's record.
func (b *Board) Slot(i int) Slot { return b.slots[i] }

// BusyCount returns the number of accelerators with a batch in flight.
func (b *Board) BusyCount() int {
	n := 0
	for i := range b.slots {
		if b.slots[i].Busy {
			n++
		}
	}
	return n
}

// Draw returns the instantaneous draw across all accelerators.
func (b *Board) Draw() float64 { return b.draw }

// MaxDraw returns the highest draw committed since Reset — the quantity the
// power budget constrains, observed after every single change.
func (b *Board) MaxDraw() float64 { return b.maxDraw }

// AdmitCounts returns Admit's counters since Reset: saving-step retries,
// retries that then issued (rescues), ladder admissions (degrades), and a
// copy of the per-tier issue counts (index 0 the primary model; nil
// without a ladder).
func (b *Board) AdmitCounts() (retries, rescues, degrades int64, tierIssues []int64) {
	if b.tierIssues != nil {
		tierIssues = append([]int64(nil), b.tierIssues...)
	}
	return b.retries, b.rescues, b.degrades, tierIssues
}

// note re-sums the ledger after a change.
func (b *Board) note() {
	var watts float64
	for i := range b.slots {
		watts += b.slots[i].Draw
	}
	b.draw = watts
	if watts > b.maxDraw {
		b.maxDraw = watts
	}
}

// tableFor resolves a model tier to its cost model: 0 (and out-of-range) is
// the primary table, t > 0 the t-th ladder rung.
func (b *Board) tableFor(tier int) *Table {
	if tier > 0 && tier <= len(b.tiers) {
		return b.tiers[tier-1]
	}
	return b.table
}

// Context assembles the scheduling context for slot's decision: the
// unallocated budget with the slot's own draw excluded (it is about to
// change state) and the slot's operating point. queued and availNanos are
// the engine's (they follow its queue discipline).
func (b *Board) Context(slot, queued int, availNanos int64) SchedContext {
	var used float64
	for i := range b.slots {
		if i != slot {
			used += b.slots[i].Draw
		}
	}
	return SchedContext{
		Queued:          queued,
		AvailNanos:      availNanos,
		PowerAvailWatts: b.cfg.PowerBudgetWatts - used,
		Current:         b.slots[slot].State,
	}
}

// views assembles Algorithm 2's busy views at now: per unfinished batch, its
// slack (earliest in-batch deadline − projected completion) and remaining
// time. With retimable set it keeps only batches Redistribute may scale up:
// not yet retimed, with enough remaining work to amortise the switch stall
// ("the HFT system carefully uses DVFS", §III-D), and running the primary
// model.
func (b *Board) views(now int64, retimable bool) []BusyAccel {
	views := b.scratch[:0]
	amortise := 4 * b.cfg.Spec.DVFSSwitchNanos
	for i := range b.slots {
		s := &b.slots[i]
		if !s.Busy || s.DoneNanos <= now {
			// A completed batch awaiting retire offers no savings and must not
			// be retimed (a scale-down's switch stall could push it past its
			// deadline after the fact). Only an online engine can observe one:
			// the simulator retires every due batch before it schedules.
			continue
		}
		v := BusyAccel{
			ID: i, DVFS: s.State, Batch: s.Batch,
			SlackNanos: s.MinDeadlineNanos - s.DoneNanos, RemainingNanos: s.DoneNanos - now,
		}
		// Redistribute ranks scale-ups by the primary Table's marginal PPW,
		// which misprices a batch running a cheaper tier — degraded
		// batches are excluded from upgrades (the saving step still sees them: its
		// deadline feasibility is frequency-ratio-based, hence tier-free, and
		// apply reprices the draw with the tier's own cost model).
		if retimable && (s.Retimes != 0 || s.Tier != 0 || v.RemainingNanos <= amortise) {
			continue
		}
		views = append(views, v)
	}
	b.scratch = views
	return views
}

// Admit is the proactive scheduler's admission step for slot at now, the
// one both engines run. pol decides against Context(slot, queued,
// availNanos). A power-infeasible verdict runs Algorithm 2's saving step
// and decides once more — when allowSave (the engine's rate limit) and DVFS
// scheduling are on; freed watts cannot rescue a deadline-infeasible query.
// A verdict still infeasible then walks tiers, the cost-descending degrade
// ladder (tiers[t-1] is tier t), so a query the save can rescue is never
// degraded. An issue — VerdictIssued, or VerdictDegradedModel with
// Decision.Tier set — is committed with the batch's earliest deadline
// minDeadlineFor(batch). Returns the decision and whether the saving step
// ran. Admit never redistributes: when that runs is the engine's.
func (b *Board) Admit(slot int, now int64, queued int, availNanos int64,
	pol Scheduler, tiers []Scheduler, allowSave bool, minDeadlineFor func(int) int64) (dec Decision, saved bool) {
	ctx := b.Context(slot, queued, availNanos)
	dec = pol.Decide(ctx)
	if dec.Verdict == VerdictPowerInfeasible && allowSave && b.dvfs {
		saved = true
		b.retries++
		if b.save(now) {
			ctx = b.Context(slot, queued, availNanos)
			if dec = pol.Decide(ctx); dec.Verdict == VerdictIssued {
				b.rescues++
			}
		}
	}
	if len(tiers) > 0 && degradable(dec.Verdict) {
		if alt, ok := degrade(tiers, ctx); ok {
			dec = alt
			b.degrades++
		}
	}
	if dec.Verdict != VerdictIssued && dec.Verdict != VerdictDegradedModel {
		return dec, saved
	}
	b.commit(slot, now, dec.Issue, dec.Tier, minDeadlineFor(dec.Issue.Batch))
	if b.tierIssues != nil {
		b.tierIssues[dec.Tier]++
	}
	return dec, saved
}

// commit records an issued batch on slot: the slot turns busy at the
// issue's operating point, draws the admitting tier's busy power, and
// completes at now + pre-pipeline + t_total. minDeadline is the earliest
// deadline inside the batch.
func (b *Board) commit(slot int, now int64, issue Issue, tier int, minDeadline int64) {
	s := &b.slots[slot]
	if s.State != issue.DVFS {
		s.Switches++
		b.emit(sim.DVFSEvent{
			TimeNanos: now, Accel: slot, Reason: sim.DVFSAtIssue,
			FromGHz: s.State.FreqGHz, ToGHz: issue.DVFS.FreqGHz,
		})
	}
	s.State = issue.DVFS
	s.Busy = true
	s.Batch = issue.Batch
	s.Tier = tier
	s.Draw = b.tableFor(tier).busyPower(issue.DVFS)
	s.DoneNanos = now + b.pre + issue.TotalNanos
	s.MinDeadlineNanos = minDeadline
	s.Retimes = 0
	b.note()
}

// save is Algorithm 2's power-saving step: scale every busy accelerator down
// to the slowest state its in-flight deadline allows, freeing budget for an
// issue that failed on power. A power emergency may retime a batch that was
// already retimed. Reports whether anything changed (a retry can succeed).
func (b *Board) save(now int64) bool {
	b.changes = b.table.savePower(b.changes[:0], b.views(now, false))
	for _, ch := range b.changes {
		b.apply(ch, now, sim.DVFSSave)
	}
	return len(b.changes) > 0
}

// Redistribute is Algorithm 2's second step: spend the residual budget
// scaling retimable busy accelerators up by marginal PPW, reserving enough
// headroom for the idle accelerators to pick up the pending queries at the
// floor state. A no-op without DVFS scheduling.
func (b *Board) Redistribute(now int64, pending int) {
	if !b.dvfs {
		return
	}
	views := b.views(now, true)
	if len(views) == 0 {
		return
	}
	idle := len(b.slots) - b.BusyCount()
	if idle > pending {
		idle = pending
	}
	if idle < 0 {
		idle = 0 // an online engine's pending count can transiently undershoot
	}
	reserve := float64(idle) * (b.table.busy[0] - b.cfg.Spec.IdlePower(b.floor))
	b.changes = b.table.redistribute(b.changes[:0], views, b.cfg.PowerBudgetWatts-b.draw-reserve)
	for _, ch := range b.changes {
		b.apply(ch, now, sim.DVFSRedistribute)
	}
}

// apply moves a busy accelerator to a new operating point at now: the
// remaining work stalls for the switch delay and then proceeds scaled by the
// frequency ratio, priced and retimed with the in-flight batch's own tier.
// (The small fixed-time C2C/post share of the remaining work is scaled along
// with it; it is ≪1% of t_total.) Changes come from views, so the slot is
// busy, unfinished, and not already at the target.
func (b *Board) apply(ch Change, now int64, reason sim.DVFSReason) {
	s := &b.slots[ch.ID]
	t := b.tableFor(s.Tier)
	done := now + t.cfg.RetimedRemainingNanos(s.DoneNanos-now, s.State, ch.DVFS)
	b.emit(sim.DVFSEvent{
		TimeNanos: now, Accel: ch.ID, Reason: reason,
		FromGHz: s.State.FreqGHz, ToGHz: ch.DVFS.FreqGHz, RetimedNanos: done - s.DoneNanos,
	})
	if reason == sim.DVFSSave {
		s.Saves++
	} else {
		s.Redistributes++
	}
	s.State = ch.DVFS
	s.Draw = t.busyPower(ch.DVFS)
	s.DoneNanos = done
	s.Retimes++
	b.note()
}

// Retire releases slot's batch at time at and, under DVFS scheduling, parks
// the idle accelerator at the power floor.
func (b *Board) Retire(slot int, at int64) {
	s := &b.slots[slot]
	s.Busy = false
	s.Batch = 0
	s.Tier = 0 // idle power is Spec-level, shared by every tier
	if b.dvfs && s.State != b.floor {
		s.Parks++
		b.emit(sim.DVFSEvent{
			TimeNanos: at, Accel: slot, Reason: sim.DVFSPark,
			FromGHz: s.State.FreqGHz, ToGHz: b.floor.FreqGHz,
		})
		s.State = b.floor
	}
	s.Draw = b.cfg.Spec.IdlePower(s.State)
	b.note()
}

// EarliestDone returns the busy accelerator that completes first (lowest
// slot on ties): the simulator's next event and the modelled-clock
// governor's next lazy retire. ok is false when nothing is in flight.
func (b *Board) EarliestDone() (slot int, done int64, ok bool) {
	slot = -1
	for i := range b.slots {
		if s := &b.slots[i]; s.Busy && (slot < 0 || s.DoneNanos < done) {
			slot, done = i, s.DoneNanos
		}
	}
	return slot, done, slot >= 0
}
