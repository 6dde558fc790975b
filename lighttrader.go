// Package lighttrader is a software reproduction of "LightTrader: A
// Standalone High-Frequency Trading System with Deep Learning Inference
// Accelerators and Proactive Scheduler" (HPCA 2023).
//
// It provides, behind one import path:
//
//   - the AI-enabled tick-to-trade pipeline (SBE market-data parsing,
//     limit-order-book maintenance, the offload engine's feature maps, DNN
//     inference, risk-checked order generation) — a fully functional
//     trading stack;
//   - the three benchmark networks (vanilla CNN, TransLOB, DeepLOB) with
//     real forward passes, plus the deep-learning compiler that lowers
//     them onto the modelled CGRA accelerator;
//   - the proactive scheduler: PPW-driven workload scheduling
//     (Algorithm 1) and DVFS power redistribution (Algorithm 2);
//   - the back-test simulation framework, the scripted market-scenario
//     traffic generator, and GPU-/FPGA-based baseline system models.
//
// The quickest path from zero to a running back-test:
//
//	src, _ := lighttrader.ScenarioByName("trading-day", 1)
//	sys, _ := lighttrader.New(lighttrader.NewDeepLOB(),
//	    lighttrader.WithAccelerators(4),
//	    lighttrader.WithWorkloadScheduling(),
//	    lighttrader.WithDVFSScheduling())
//	metrics := lighttrader.Backtest(src.Ticks(), 20*time.Millisecond, sys)
//	fmt.Printf("response rate: %.1f%%\n", 100*metrics.ResponseRate)
//
// For multi-symbol serving, subscribe instruments on a MultiPipeline and
// run them through NewServer — a concurrent runtime applying the proactive
// scheduler's batch/deadline decision online across worker lanes (see
// DESIGN.md §9). BacktestContext adds cancellation to long replays.
//
// The package examples run end to end and are checked by go test; see
// DESIGN.md for the programs, the system inventory and the per-experiment
// index.
package lighttrader

import (
	"io"
	"time"

	"lighttrader/internal/baseline"
	"lighttrader/internal/core"
	"lighttrader/internal/feed"
	"lighttrader/internal/lob"
	"lighttrader/internal/nn"
	"lighttrader/internal/offload"
	"lighttrader/internal/sim"
	"lighttrader/internal/tensor"
	"lighttrader/internal/trading"
)

// Model is a neural network with a real forward pass and per-layer FLOP
// accounting.
type Model = nn.Model

// Direction is a predicted price movement (Down, Stationary, Up).
type Direction = nn.Direction

// Direction values.
const (
	Down       = nn.Down
	Stationary = nn.Stationary
	Up         = nn.Up
)

// Benchmark models (paper Table II).
var (
	// NewVanillaCNN builds the plain CNN baseline.
	NewVanillaCNN = nn.NewVanillaCNN
	// NewTransLOB builds the CNN+Transformer model.
	NewTransLOB = nn.NewTransLOB
	// NewDeepLOB builds the CNN+LSTM model.
	NewDeepLOB = nn.NewDeepLOB
)

// ZooSpec parameterises one model-zoo variant: architecture family, width,
// depth and lookback, all generated on the shared tensor kernels. The benchmark models above are presets of this one
// construction path (see VanillaCNNSpec and friends).
type ZooSpec = nn.ZooSpec

// ZooArch selects a zoo variant's architecture family.
type ZooArch = nn.ZooArch

// Zoo architecture families.
const (
	ZooCNN         = nn.ZooCNN
	ZooLSTM        = nn.ZooLSTM
	ZooTransformer = nn.ZooTransformer
)

// BuildZoo builds one model-zoo variant. Equal specs produce byte-identical
// models, and every variant consumes the standard feature window, so zoo
// models are drop-in replacements anywhere a benchmark model is used —
// including the serving runtime's degrade ladder (WithModelZoo).
func BuildZoo(s ZooSpec) (*Model, error) { return nn.BuildZoo(s) }

// MustBuildZoo is BuildZoo, panicking on an invalid spec.
func MustBuildZoo(s ZooSpec) *Model { return nn.MustBuildZoo(s) }

// Preset zoo specs behind the benchmark constructors and the M1…M5 ladder.
var (
	VanillaCNNSpec = nn.VanillaCNNSpec
	DeepLOBSpec    = nn.DeepLOBSpec
	TransLOBSpec   = nn.TransLOBSpec
	SizedCNNSpec   = nn.SizedCNNSpec
)

// Tick is one market-data event: encoded packet plus book snapshot.
type Tick = feed.Tick

// WriteTrace serialises a trace; ReadTrace loads one.
func WriteTrace(w io.Writer, symbol string, ticks []Tick) error {
	return feed.WriteTrace(w, symbol, ticks)
}

// ReadTrace deserialises a trace written by WriteTrace.
func ReadTrace(r io.Reader) (string, []Tick, error) { return feed.ReadTrace(r) }

// PowerCondition is a card-level power envelope.
type PowerCondition = core.PowerCondition

// The paper's two power conditions.
var (
	Sufficient = core.Sufficient
	Limited    = core.Limited
)

// SchedulerOptions selects the proactive-scheduler features.
type SchedulerOptions = core.Options

// System is anything the back-test can drive: LightTrader or a baseline.
type System = sim.SystemModel

// Metrics summarises one back-test run.
type Metrics = sim.Metrics

// NewGPUBaseline models the GPU-based comparison system (CPU + NIC + V100).
func NewGPUBaseline(m *Model) System { return baseline.NewGPU(m) }

// NewFPGABaseline models the FPGA-based comparison system (CPU + Alveo U250).
func NewFPGABaseline(m *Model) System { return baseline.NewFPGA(m) }

// Backtest replays a tick trace against a system with the given per-query
// available time (t_avail) and returns the metrics. Runs are deterministic.
func Backtest(ticks []Tick, tAvail time.Duration, sys System) Metrics {
	return sim.Run(sim.QueriesFromTicks(ticks, tAvail.Nanoseconds()), sys)
}

// Pipeline is the functional tick-to-trade path: packet in, order out, with
// a real DNN forward pass in the middle.
type Pipeline = core.Pipeline

// TradingConfig bounds the trading engine (order size, position limit,
// confidence threshold).
type TradingConfig = trading.Config

// DefaultTradingConfig returns conservative limits for one instrument.
func DefaultTradingConfig(securityID int32) TradingConfig {
	return trading.DefaultConfig(securityID)
}

// Normalizer holds the offload engine's Z-score statistics.
type Normalizer = offload.Normalizer

// CalibrateNormalizer profiles Z-score statistics from historical ticks.
func CalibrateNormalizer(ticks []Tick) Normalizer {
	snaps := make([]lob.Snapshot, len(ticks))
	for i := range ticks {
		snaps[i] = ticks[i].Snapshot
	}
	return offload.Calibrate(snaps)
}

// NewPipeline assembles the functional pipeline for one instrument.
func NewPipeline(symbol string, securityID int32, m *Model, norm Normalizer, tcfg TradingConfig) (*Pipeline, error) {
	return core.NewPipeline(symbol, securityID, m, norm, tcfg)
}

// FunctionalReport summarises a packet-level back-test (orders, fills,
// PnL marked to the final mid).
type FunctionalReport = core.FunctionalReport

// FunctionalBacktest replays a trace packet-by-packet through the
// functional pipeline with an immediate-fill execution model.
func FunctionalBacktest(ticks []Tick, p *Pipeline) (FunctionalReport, error) {
	return core.FunctionalBacktest(ticks, p)
}

// Trainer performs SGD training (paper Fig. 3's offline training stage).
// The CNN family and DeepLOB (via BPTT) are trainable; TransLOB's
// transformer blocks are inference-only.
type Trainer = nn.Trainer

// NewTrainer validates trainability and returns a trainer.
func NewTrainer(m *Model, lr float32) (*Trainer, error) { return nn.NewTrainer(m, lr) }

// NewSizedCNN builds a CNN with the given width and depth — the trainable
// model family (also the M1…M5 complexity ladder of paper Fig. 8).
func NewSizedCNN(name string, channels, extraConvs int) *Model {
	return nn.NewSizedCNN(name, channels, extraConvs)
}

// BuildDataset converts a tick trace into (feature map, label) training
// pairs per paper Fig. 3: horizon is the prediction horizon in ticks,
// threshold the relative mid move below which the label is Stationary.
func BuildDataset(ticks []Tick, norm Normalizer, horizon int, threshold float64) ([]*tensor.Tensor, []Direction) {
	return offload.BuildDataset(ticks, norm, horizon, threshold)
}

// Accuracy evaluates a model's classification accuracy over a dataset.
func Accuracy(m *Model, xs []*tensor.Tensor, labels []Direction) (float64, error) {
	return nn.Accuracy(m, xs, labels)
}

// Tensor is the dense float32 tensor type used for model inputs.
type Tensor = tensor.Tensor
