package serve

import (
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/sbe"
	"lighttrader/internal/sched"
	"lighttrader/internal/sim"
)

// degradeConfigs compiles a deliberately expensive primary model and a cheap
// ladder tier onto the same power envelope and returns their scheduling
// configs plus a deadline budget strictly between the two models' batch-1
// service times — the window where the primary is deadline-infeasible but
// the tier is not.
func degradeConfigs(t *testing.T) (primary, tier *sched.Config, midAvail int64) {
	t.Helper()
	big, err := core.Configure(nn.NewVanillaCNN(), 1,
		core.Sufficient, core.Options{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	small, err := core.Configure(nn.NewSizedCNN("degrade-tier", 8, 0), 1,
		core.Sufficient, core.Options{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	bigTT := big.Sched.TotalNanos(big.Sched.StaticDVFS, 1)
	smallTT := small.Sched.TotalNanos(small.Sched.StaticDVFS, 1)
	if smallTT >= bigTT {
		t.Fatalf("tier model is not cheaper: %d ns vs %d ns", smallTT, bigTT)
	}
	return &big.Sched, &small.Sched, (smallTT + bigTT) / 2
}

// degradeProbe records degrade events and the tiers of issued batches.
type degradeProbe struct {
	degrades   []sim.QueryEvent
	issueTiers []int
}

func (p *degradeProbe) OnQueryEvent(e sim.QueryEvent) {
	switch e.Kind {
	case sim.QueryDegrade:
		p.degrades = append(p.degrades, e)
	case sim.QueryIssue:
		p.issueTiers = append(p.issueTiers, e.Tier)
	}
}
func (p *degradeProbe) OnDVFSEvent(sim.DVFSEvent) {}
func (p *degradeProbe) OnSample(sim.Sample)       {}

// TestDegradeLadderAdmitsInfeasible single-steps the lane-side ladder: a
// query whose deadline the primary model cannot meet — but the cheaper tier
// can — must issue as a degraded batch (tier 1, the tier's timing, a
// QueryDegrade probe event, Degrades/TierIssues accounting) instead of
// dropping; a query the primary can serve must stay on tier 0.
func TestDegradeLadderAdmitsInfeasible(t *testing.T) {
	primary, tier, mid := degradeConfigs(t)
	probe := &degradeProbe{}
	srv, l := bareServer(t, Config{
		Sched: primary,
		Tiers: []TierConfig{{Sched: tier}},
		Probe: probe,
	})

	// Feasible for the full model: issues on tier 0, no degrade accounting.
	l.enqueue(mkQuery(1, 1_000, 1_000+10*primary.TotalNanos(primary.StaticDVFS, 1)))
	batch, issue, tierGot, _, ok := l.take(false)
	if !ok || tierGot != 0 || len(batch) != 1 {
		t.Fatalf("feasible take = (%d queries, tier %d, ok=%v), want tier-0 issue", len(batch), tierGot, ok)
	}
	l.process(batch, issue, tierGot, 1_000)
	if st := srv.Stats(); st.Degrades != 0 || len(probe.degrades) != 0 {
		t.Fatalf("full-model-feasible query degraded: %+v", st)
	}

	// Deadline between the tier's and the primary's service time: the
	// primary is infeasible, the ladder must answer on tier 1.
	now := int64(2_000_000_000)
	l.enqueue(mkQuery(2, now, now+mid))
	batch, issue, tierGot, takeNow, ok := l.take(false)
	if !ok || len(batch) != 1 {
		t.Fatalf("infeasible-window take = (%d queries, ok=%v), want a degraded issue", len(batch), ok)
	}
	if tierGot != 1 {
		t.Fatalf("issued on tier %d, want 1", tierGot)
	}
	if want := tier.TotalNanos(issue.DVFS, 1); issue.TotalNanos != want {
		t.Fatalf("degraded issue timed %d ns, want the tier's %d ns", issue.TotalNanos, want)
	}
	l.process(batch, issue, tierGot, takeNow)
	if l.curTier != 1 {
		t.Fatalf("pipelines left on tier %d after degraded dispatch, want 1", l.curTier)
	}

	st := srv.Stats()
	if st.Degrades != 1 {
		t.Fatalf("Degrades = %d, want 1", st.Degrades)
	}
	if len(st.TierIssues) != 2 || st.TierIssues[0] != 1 || st.TierIssues[1] != 1 {
		t.Fatalf("TierIssues = %v, want [1 1]", st.TierIssues)
	}
	if st.DeferredDeadline != 0 || st.DeferredPower != 0 {
		t.Fatalf("degraded query also counted as deferred: %+v", st)
	}
	if st.Served != 2 {
		t.Fatalf("Served = %d, want 2 (degraded queries are answered, not missed)", st.Served)
	}
	if len(probe.degrades) != 1 || probe.degrades[0].Tier != 1 ||
		probe.degrades[0].Query.ID != 2 || probe.degrades[0].Batch != 1 {
		t.Fatalf("degrade probe events = %+v, want one tier-1 event for query 2", probe.degrades)
	}
	if len(probe.issueTiers) != 2 || probe.issueTiers[0] != 0 || probe.issueTiers[1] != 1 {
		t.Fatalf("issue-event tiers = %v, want [0 1]", probe.issueTiers)
	}
}

// TestDegradeLadderEndToEnd replays a market through a full inline Server
// whose deadline budget sits inside the degrade window: every batch must be
// answered on the ladder tier — with the tier's functional model switched
// into the pipelines — and the drop-only baseline must lose exactly the
// queries the ladder recovers.
func TestDegradeLadderEndToEnd(t *testing.T) {
	syms := []string{"ESU6", "NQU6"}
	packets := buildMarket(t, syms, 30)
	primary, tier, mid := degradeConfigs(t)

	build := func(tiers []TierConfig) *Server {
		t.Helper()
		srv, err := New(buildMulti(t, syms), Config{
			Sched:       primary,
			Tiers:       tiers,
			TAvailNanos: mid,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	replay := func(srv *Server) Stats {
		t.Helper()
		for _, buf := range packets {
			pkt, err := sbe.DecodePacket(buf)
			if err != nil {
				t.Fatal(err)
			}
			srv.SubmitPacket(srv.ArrivalNanos(pkt), pkt)
		}
		srv.Drain()
		return srv.Stats()
	}

	ladder := replay(build([]TierConfig{
		{Sched: tier, Model: nn.NewSizedCNN("degrade-tier", 8, 0)},
	}))
	baseline := replay(build(nil))

	if baseline.DeferredDeadline == 0 {
		t.Fatal("baseline dropped nothing: the deadline window does not bite")
	}
	if ladder.Degrades == 0 {
		t.Fatalf("ladder never degraded: %+v", ladder)
	}
	if ladder.Dropped() != 0 {
		t.Fatalf("ladder still dropped %d queries: %+v", ladder.Dropped(), ladder)
	}
	if ladder.Served != ladder.Submitted {
		t.Fatalf("ladder served %d of %d", ladder.Served, ladder.Submitted)
	}
	if ladder.ResponseRate <= baseline.ResponseRate {
		t.Fatalf("ladder response rate %.3f not above drop-only baseline %.3f",
			ladder.ResponseRate, baseline.ResponseRate)
	}
	sum := 0
	for _, n := range ladder.TierIssues {
		sum += n
	}
	if sum != ladder.Batches {
		t.Fatalf("TierIssues sum %d != Batches %d", sum, ladder.Batches)
	}
	if ladder.TierIssues[1] != ladder.Degrades {
		t.Fatalf("tier-1 issues %d != Degrades %d", ladder.TierIssues[1], ladder.Degrades)
	}
}

// TestTierConfigValidation pins the New-time ladder checks: a ladder needs a
// primary scheduling config, every rung needs its own, the power budget is
// not negotiable, and functional tier models must match the pipelines'
// input shape.
func TestTierConfigValidation(t *testing.T) {
	primary, tier, _ := degradeConfigs(t)
	mp := func() *core.MultiPipeline { return buildMulti(t, []string{"ESU6"}) }

	if _, err := New(mp(), Config{Tiers: []TierConfig{{Sched: tier}}}); err == nil {
		t.Fatal("ladder without a primary scheduling config accepted")
	}
	if _, err := New(mp(), Config{Sched: primary, Tiers: []TierConfig{{}}}); err == nil {
		t.Fatal("tier without a scheduling config accepted")
	}
	hot := *tier
	hot.PowerBudgetWatts = primary.PowerBudgetWatts * 2
	if _, err := New(mp(), Config{Sched: primary, Tiers: []TierConfig{{Sched: &hot}}}); err == nil {
		t.Fatal("tier with a different power budget accepted")
	}
	odd := &nn.Model{ModelName: "odd-shape", InputShape: []int{1, 50, 40}}
	if _, err := New(mp(), Config{Sched: primary,
		Tiers: []TierConfig{{Sched: tier, Model: odd}}}); err == nil {
		t.Fatal("tier model with a mismatched input shape accepted")
	}
	if _, err := New(mp(), Config{Sched: primary, Tiers: []TierConfig{{Sched: tier}}}); err != nil {
		t.Fatalf("valid ladder rejected: %v", err)
	}
}

// TestModelSwitchPathNoAllocs is the allocation regression for the
// lane-side model-switch path: one transactional admission (the governor's
// lock around sched.Board.Admit) that walks the ladder, commits a degraded
// issue against the tier's cost model and redistributes, plus the pipeline
// tier switch, must not allocate — degradation is a steady-state burst
// response, not a slow path.
func TestModelSwitchPathNoAllocs(t *testing.T) {
	primary, tier, mid := degradeConfigs(t)
	srv, l := bareServer(t, Config{
		Sched: primary,
		Tiers: []TierConfig{{Sched: tier}},
	})
	now := int64(1_000)
	l.enqueue(mkQuery(1, now, now+mid)) // queue head for minDeadlineFor
	var p core.Pipeline
	p.SetModelLadder([]*nn.Model{nil})

	allocs := testing.AllocsPerRun(1000, func() {
		dec, _, _ := srv.gov.admit(l, now, 1, mid, false)
		if dec.Verdict != sched.VerdictDegradedModel || dec.Tier != 1 {
			t.Fatalf("admit = verdict %v tier %d, want a tier-1 degrade", dec.Verdict, dec.Tier)
		}
		p.SetActiveTier(dec.Tier)
		p.SetActiveTier(0)
	})
	if allocs != 0 {
		t.Fatalf("model-switch path allocates %.1f per admission, want 0", allocs)
	}
}
