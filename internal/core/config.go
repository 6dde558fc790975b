package core

import (
	"fmt"

	"lighttrader/internal/c2c"
	"lighttrader/internal/cgra"
	"lighttrader/internal/compile"
	"lighttrader/internal/nn"
	"lighttrader/internal/sched"
)

// PowerCondition is a card-level power envelope from §IV-C: the accelerator
// share of the card budget after the FPGA and peripherals take theirs.
type PowerCondition struct {
	Name string
	// AccelBudgetWatts is the power available to all AI accelerators.
	AccelBudgetWatts float64
}

// The paper's two evaluation envelopes: a 75 W co-location PCIe card and a
// 40 W constrained card, each minus ≈20 W for FPGA and peripherals.
var (
	Sufficient = PowerCondition{Name: "sufficient", AccelBudgetWatts: 55}
	Limited    = PowerCondition{Name: "limited", AccelBudgetWatts: 20}
)

// Options selects the scheduling features for a configuration.
type Options struct {
	WorkloadScheduling bool
	DVFSScheduling     bool
	// Scheduler overrides the scheduling strategy (default: the paper's
	// proactive PPW scheduler behind sched.NewPPWScheduler).
	Scheduler sched.Factory
}

// Configure compiles model m for the default accelerator spec and builds a
// LightTrader SystemConfig with n accelerators under the given power
// condition.
func Configure(m *nn.Model, n int, power PowerCondition, opts Options) (SystemConfig, error) {
	spec := cgra.DefaultSpec()
	kernel, err := compile.Compile(m, spec)
	if err != nil {
		return SystemConfig{}, fmt.Errorf("core: %w", err)
	}
	staticDVFS, _ := sched.StaticDVFSFor(spec, kernel, n, power.AccelBudgetWatts)
	return SystemConfig{
		Sched: sched.Config{
			Spec:               spec,
			Kernel:             kernel,
			Link:               c2c.CustomC2C(),
			WorkloadScheduling: opts.WorkloadScheduling,
			DVFSScheduling:     opts.DVFSScheduling,
			StaticDVFS:         staticDVFS,
			PowerBudgetWatts:   power.AccelBudgetWatts,
			PostProcessNanos:   DefaultPostPipelineNanos,
		},
		Scheduler:        opts.Scheduler,
		NumAccels:        n,
		PrePipelineNanos: DefaultPrePipelineNanos,
	}, nil
}

// TickToTradeNanos returns the batch-1 tick-to-trade latency of the
// configured system at its static operating point: trading pipeline in,
// C2C transfer, inference, result return, order generation out (the
// quantity of Fig. 11a plus the ≈1 µs conventional pipeline).
func (cfg SystemConfig) TickToTradeNanos() int64 {
	return cfg.PrePipelineNanos + cfg.Sched.TotalNanos(cfg.Sched.StaticDVFS, 1)
}
