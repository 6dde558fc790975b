package serve

import (
	"sync"

	"lighttrader/internal/sched"
)

// governor is the online owner of the paper's Algorithm 2 over the serving
// lanes: the scheduling board (one slot per lane) behind a single lock that
// makes the board's admission step transactional (decide, save-retry,
// ladder walk and commit under one critical section, so two lanes can never
// jointly overshoot the budget), and redistributes residual budget after
// every issue and retire. Without a scheduling config there is no board and
// the governor is inert; with one but without DVFS scheduling (or when
// disabled) the board degrades to a transactional power meter: Algorithm 1
// admission against the shared budget, no DVFS actions.
type governor struct {
	srv *Server
	// tierCfgs are Config.Tiers' cost models, built once: the board prices
	// degraded batches with them and every lane builds its ladder over them.
	tierCfgs []*sched.Config
	// modelled switches retirement to modelled time: a lane's power is held
	// until its batch's modelled completion instant passes (observed lazily
	// at the next governor event), not until the wall-clock dispatch
	// returns — the cross-lane analogue of the simulator's event loop.
	// Without it (live serving) a lane retires when its dispatch finishes,
	// which on real hardware IS the modelled completion.
	modelled bool

	mu sync.Mutex
	// board is nil without a scheduling config.
	board *sched.Board
}

func newGovernor(srv *Server, cfg *sched.Config, lanes int) *governor {
	g := &governor{srv: srv, modelled: srv.cfg.ModelledClock}
	if cfg == nil {
		return g
	}
	for _, t := range srv.cfg.Tiers {
		g.tierCfgs = append(g.tierCfgs, t.Sched)
	}
	dvfs := cfg.DVFSScheduling && !srv.cfg.DisablePowerGovernor
	g.board = sched.NewBoard(cfg, g.tierCfgs, lanes, srv.cfg.PrePipelineNanos, dvfs, srv.probe.dvfs)
	return g
}

// admit runs the board's admission step for lane l transactionally — decide
// against the live cross-lane power view, save and retry once (when
// allowSave: the lane's once-per-decision-instant limit), walk the lane's
// degrade ladder, commit — and on an issue spends any residual budget
// scaling busy lanes up before the lock is released. l's minDeadlineFor is
// called with the issued batch size while the caller still holds l.mu.
// Returns the decision and whether the saving step ran.
func (g *governor) admit(l *lane, now int64, queued int, availNanos int64, allowSave bool) (sched.Decision, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Modelled time: batches whose completion instant has passed release
	// their power (and park, and redistribute) before this decision reads
	// the budget — the simulator's advance-before-schedule ordering.
	g.retireDue(now)
	dec, saved := g.board.Admit(l.id, now, queued, availNanos, l.policy, l.tiers, allowSave, l.minDeadlineFor)
	if dec.Verdict == sched.VerdictIssued || dec.Verdict == sched.VerdictDegradedModel {
		g.board.Redistribute(now, int(g.srv.queued.Load())-dec.Issue.Batch)
	}
	return dec, saved
}

// retire marks laneID's batch complete at its (possibly retimed) modelled
// completion time, parks the lane at the floor state under DVFS scheduling,
// and spends the freed budget upgrading still-busy lanes. Returns the
// modelled completion time. Wall-clock mode only; modelled runs retire
// lazily through retireDue/flush.
func (g *governor) retire(laneID int) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	done := g.board.Slot(laneID).DoneNanos
	g.retireLocked(laneID, done)
	return done
}

// retireDue retires, in completion order, every lane whose modelled batch
// has finished by now — the lazy form of the simulator's event loop, run at
// the head of every governor event in modelled mode. Callers hold g.mu.
func (g *governor) retireDue(now int64) {
	if !g.modelled {
		return
	}
	for {
		lane, done, ok := g.board.EarliestDone()
		if !ok || done > now {
			return
		}
		g.retireLocked(lane, done)
	}
}

// flush retires every still-busy lane at its modelled completion — the
// end-of-replay drain, so final parks and counters match a simulator run
// that advances past its last event.
func (g *governor) flush() {
	if g.board == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retireDue(1<<63 - 1)
}

// retireLocked releases laneID's power at time done and redistributes at
// once (the simulator waits for the end of its scheduling pass; a lane has
// no pass to wait for). Callers hold g.mu.
func (g *governor) retireLocked(laneID int, done int64) {
	g.board.Retire(laneID, done)
	g.board.Redistribute(done, int(g.srv.queued.Load()))
}

// projectedDone returns laneID's modelled completion as retimed so far: the
// instant its accelerator frees up. Valid after retire too (the last
// batch's completion).
func (g *governor) projectedDone(laneID int) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.board.Slot(laneID).DoneNanos
}

// load returns the busy-lane count and total instantaneous draw.
func (g *governor) load() (busy int, watts float64) {
	if g.board == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.board.BusyCount(), g.board.Draw()
}

// govCounters is a consistent snapshot of the governor's aggregates.
type govCounters struct {
	retries, rescues, saves, redistributes, parks, switches int64
	degrades                                                int64
	tierIssues                                              []int64
	maxDraw                                                 float64
}

func (g *governor) counters() govCounters {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := govCounters{maxDraw: g.board.MaxDraw()}
	c.retries, c.rescues, c.degrades, c.tierIssues = g.board.AdmitCounts()
	for i := 0; i < g.board.Len(); i++ {
		rec := g.board.Slot(i)
		c.saves += rec.Saves
		c.redistributes += rec.Redistributes
		c.parks += rec.Parks
		c.switches += rec.Switches
	}
	return c
}

// LaneDVFSStats is one lane's published DVFS/power state and counters.
type LaneDVFSStats struct {
	// Lane is the lane index (the probe's accelerator id).
	Lane int
	// FreqGHz is the lane's present modelled operating point; DrawWatts its
	// present modelled draw; Busy whether a batch is in flight.
	FreqGHz   float64
	DrawWatts float64
	Busy      bool
	// Switches counts at-issue operating-point changes; Saves scale-downs
	// applied by Algorithm 2's saving step; Redistributes scale-ups from
	// residual budget; Parks returns to the floor state at retire.
	Switches      int64
	Saves         int64
	Redistributes int64
	Parks         int64
}

// LaneDVFS returns every lane's DVFS/power state and governor counters.
// Nil without a scheduling config.
func (s *Server) LaneDVFS() []LaneDVFSStats {
	if s.gov.board == nil {
		return nil
	}
	s.gov.mu.Lock()
	defer s.gov.mu.Unlock()
	out := make([]LaneDVFSStats, s.gov.board.Len())
	for i := range out {
		rec := s.gov.board.Slot(i)
		out[i] = LaneDVFSStats{
			Lane: i, FreqGHz: rec.State.FreqGHz, DrawWatts: rec.Draw, Busy: rec.Busy,
			Switches: rec.Switches, Saves: rec.Saves,
			Redistributes: rec.Redistributes, Parks: rec.Parks,
		}
	}
	return out
}
