package sched

import (
	"testing"
)

// trainingContexts replays a fixed little workload against a QScheduler in
// training mode, alternating loaded and starved contexts so both issue and
// defer transitions update the table.
func trainingContexts(cfg *Config) []SchedContext {
	low := cfg.Spec.DVFSTable()[0]
	return []SchedContext{
		{Queued: 8, AvailNanos: 10_000_000, PowerAvailWatts: 55, Current: low},
		{Queued: 2, AvailNanos: 400_000, PowerAvailWatts: 20, Current: low},
		{Queued: 5, AvailNanos: 10_000_000, PowerAvailWatts: 0.1, Current: low},
		{Queued: 16, AvailNanos: 10_000_000, PowerAvailWatts: 55, Current: low},
		{Queued: 1, AvailNanos: 1_000, PowerAvailWatts: 55, Current: low},
	}
}

// TestQLearnsAndFreezes: training moves the table; a
// frozen scheduler stops updating and decides deterministically.
func TestQLearnsAndFreezes(t *testing.T) {
	cfg := testConfig(t, true, true)
	q := NewQScheduler(cfg, DefaultQConfig())
	q.SetTraining(true)
	for ep := 0; ep < 30; ep++ {
		for _, ctx := range trainingContexts(cfg) {
			q.Decide(ctx)
		}
		q.EndEpisode()
	}
	var nonzero int
	for _, v := range q.q {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("training left the table untouched")
	}
	q.SetTraining(false)
	snapshot := append([]float64(nil), q.q...)
	ctx := trainingContexts(cfg)[0]
	first := q.Decide(ctx)
	for i := 0; i < 20; i++ {
		if got := q.Decide(ctx); got != first {
			t.Fatalf("frozen decision changed: %+v then %+v", first, got)
		}
	}
	for i, v := range q.q {
		if v != snapshot[i] {
			t.Fatalf("frozen Decide mutated q[%d]", i)
		}
	}
}

// TestQTrainingReproducible: two learners with the same seed trained on the
// same context stream end with identical tables; a different seed diverges
// (the exploration source is the only randomness).
func TestQTrainingReproducible(t *testing.T) {
	cfg := testConfig(t, true, true)
	train := func(seed int64) *QScheduler {
		qc := DefaultQConfig()
		qc.Seed = seed
		q := NewQScheduler(cfg, qc)
		q.SetTraining(true)
		for ep := 0; ep < 20; ep++ {
			for _, ctx := range trainingContexts(cfg) {
				q.Decide(ctx)
			}
			q.EndEpisode()
		}
		q.SetTraining(false)
		return q
	}
	a, b := train(1), train(1)
	for i := range a.q {
		if a.q[i] != b.q[i] {
			t.Fatalf("same seed diverged at q[%d]: %v vs %v", i, a.q[i], b.q[i])
		}
	}
	c := train(2)
	same := true
	for i := range a.q {
		if a.q[i] != c.q[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical tables — exploration is not seeded")
	}
}

// TestQTrainingLearnsToBatch: with rewards proportional to issued batch
// size, the trained greedy action under a deep queue must batch more than
// one query — the minimum signal that learning is wired to the reward.
func TestQTrainingLearnsToBatch(t *testing.T) {
	cfg := testConfig(t, true, true)
	q := NewQScheduler(cfg, DefaultQConfig())
	loaded := SchedContext{
		Queued: 16, AvailNanos: 10_000_000, PowerAvailWatts: 55,
		Current: cfg.Spec.DVFSTable()[0],
	}
	q.SetTraining(true)
	for i := 0; i < 400; i++ {
		q.Decide(loaded)
	}
	q.EndEpisode()
	q.SetTraining(false)
	dec := q.Decide(loaded)
	if dec.Verdict != VerdictIssued {
		t.Fatalf("trained learner deferred feasible work: %+v", dec)
	}
	if dec.Issue.Batch <= 1 {
		t.Fatalf("trained learner still issues batch %d under a 16-deep queue", dec.Issue.Batch)
	}
}
