package sched

// Model-tier degradation (the inference-compute-frontier seam). A degrade
// ladder is a cost-descending list of cheaper compiled models, each with its
// own Config (kernel, activity factor, static DVFS point — hence its own
// profiled Table) sharing the primary Config's accelerator Spec and power
// budget. When the primary model is deadline- or power-infeasible for the
// oldest query, Board.Admit re-runs admission down the ladder and issues on
// the first tier that fits instead of dropping — trading prediction accuracy
// for a response.

// NewModelTiers returns the ladder's policies for a factory over
// cost-descending tier configs (tier 1 first): policy t-1 decides against
// cfgs[t-1], which the Board holds as its tier tables. Each tier gets its
// own instance from the primary policy's factory, so the ladder inherits
// its issue objective and each tier ranks from its own Table.
func NewModelTiers(f Factory, cfgs []*Config) []Scheduler {
	tiers := make([]Scheduler, len(cfgs))
	for i, cfg := range cfgs {
		tiers[i] = f(cfg)
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
func degrade(tiers []Scheduler, ctx SchedContext) (Decision, bool) {
	for i, pol := range tiers {
		alt := pol.Decide(ctx)
		if alt.Verdict == VerdictIssued {
			alt.Verdict = VerdictDegradedModel
			alt.Tier = i + 1
			return alt, true
		}
	}
	return Decision{}, false
}
