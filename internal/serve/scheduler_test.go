package serve

// Tests for the pluggable scheduling strategy on the serving side: lanes
// build their policy from Config.Scheduler, non-default policies change
// dispatch shape (FCFS never batches), and a shared frozen instance is safe
// across concurrent lanes (exercised under `go test -race` by make ci).

import (
	"context"
	"testing"

	"lighttrader/internal/core"
	"lighttrader/internal/nn"
	"lighttrader/internal/sched"
)

// servePolicyConfig builds the scheduling config the policy tests share:
// WS on, no deadline pressure (TAvailNanos 0 = unbounded).
func servePolicyConfig(t *testing.T) *sched.Config {
	t.Helper()
	syscfg, err := core.Configure(nn.NewSizedCNN("sched-policy", 8, 0), 1,
		core.Sufficient, core.Options{WorkloadScheduling: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := syscfg.Sched
	return &cfg
}

// TestServeSchedulerFCFSNeverBatches: with the FCFS baseline plugged in,
// every dispatch is a single query even though the backlog would batch.
func TestServeSchedulerFCFSNeverBatches(t *testing.T) {
	syms := []string{"ESU6", "NQU6"}
	packets := buildMarket(t, syms, 60)
	fcfs, err := sched.FactoryByName("fcfs")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(buildMulti(t, syms), Config{
		Sched: servePolicyConfig(t), Scheduler: fcfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range packets {
		if err := srv.Submit(int64(i)*1000, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Served != st.Submitted || st.Submitted == 0 {
		t.Fatalf("fcfs dropped queries without deadlines: %+v", st)
	}
	if st.MeanBatch != 1 {
		t.Fatalf("fcfs mean batch = %v, want exactly 1", st.MeanBatch)
	}
	if st.Batches != st.Served {
		t.Fatalf("fcfs batches = %d for %d served", st.Batches, st.Served)
	}
}

// TestServeSchedulerSharedInstance: a factory returning one shared PPW
// scheduler across concurrent lanes must serve correctly — Decide reads
// only its Table, which the race detector verifies.
func TestServeSchedulerSharedInstance(t *testing.T) {
	syms := []string{"ESU6", "NQU6", "YMU6", "RTYU6"}
	packets := buildMarket(t, syms, 50)
	cfg := servePolicyConfig(t)
	shared := sched.NewPPWScheduler(cfg)
	srv, err := New(buildMulti(t, syms), Config{
		Lanes: 4, MaxQueue: len(packets) + 1,
		Sched:     cfg,
		Scheduler: func(*sched.Config) sched.Scheduler { return shared },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	for i, buf := range packets {
		if err := srv.Submit(int64(i)*1000, buf); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	cancel()
	<-done
	st := srv.Stats()
	if st.Served != st.Submitted || st.Submitted == 0 {
		t.Fatalf("shared policy dropped queries: %+v", st)
	}
}

// TestServeRejectsInvalidConfig: serve.New applies the construction-time
// scheduling validation and the non-negative deadline check.
func TestServeRejectsInvalidConfig(t *testing.T) {
	syms := []string{"ESU6"}
	mp := buildMulti(t, syms)
	bad := servePolicyConfig(t)
	bad.PowerBudgetWatts = -1
	if _, err := New(mp, Config{Sched: bad}); err == nil {
		t.Fatal("New accepted a negative power budget")
	}
	if _, err := New(buildMulti(t, syms), Config{TAvailNanos: -1}); err == nil {
		t.Fatal("New accepted a negative deadline budget")
	}
}
