package sched

// Model-tier degradation (the inference-compute-frontier seam). A degrade
// ladder is a cost-descending list of cheaper compiled models, each with its
// own Config (kernel, activity factor, static DVFS point — hence its own
// profiled Table) sharing the primary Config's accelerator Spec and power
// budget. When the primary model is deadline- or power-infeasible for the
// oldest query, Board.Admit re-runs admission down the ladder and issues on
// the first tier that fits instead of dropping — trading prediction accuracy
// for a response.

// ModelTier couples one cheaper model's cost model with the policy instance
// that answers admission questions against its Table.
type ModelTier struct {
	// Cfg is the tier's compiled cost model. It must share the primary
	// Config's Spec and PowerBudgetWatts: the ladder changes what runs,
	// never the hardware or the budget.
	Cfg *Config
	// Scheduler decides against Cfg. Built from the same factory as the
	// primary policy so the ladder inherits its issue objective.
	Scheduler Scheduler
}

// NewModelTiers builds the ladder for a factory over cost-descending tier
// configs (tier 1 first). Each tier gets its own policy instance, keeping
// stateful policies (Q-tables, round-robin cursors) per-tier.
func NewModelTiers(f Factory, cfgs []*Config) []ModelTier {
	tiers := make([]ModelTier, len(cfgs))
	for i, cfg := range cfgs {
		tiers[i] = ModelTier{Cfg: cfg, Scheduler: f(cfg)}
	}
	return tiers
}

// degradable reports whether a primary-model verdict opens the ladder: only
// infeasibility verdicts do — an issued decision or an empty queue never
// degrades.
func degradable(v Verdict) bool {
	return v == VerdictDeadlineInfeasible || v == VerdictPowerInfeasible
}

// degrade walks the ladder for a context whose primary-model admission
// failed and returns the first tier that fits, with VerdictDegradedModel
// and Tier set. The second result is false when no tier fits either.
func degrade(tiers []ModelTier, ctx SchedContext) (Decision, bool) {
	for i, t := range tiers {
		alt := t.Scheduler.Decide(ctx)
		if alt.Verdict == VerdictIssued {
			alt.Verdict = VerdictDegradedModel
			alt.Tier = i + 1
			return alt, true
		}
	}
	return Decision{}, false
}
