// Package sim is the back-test simulation framework of paper §IV-A: a
// deterministic discrete-event engine that replays a tick trace against a
// system model, tracks each query's tick-to-trade against its available
// time, and reports response/miss rates, latency distributions and energy.
// Like the paper's framework, it drives systems through profiled latency
// and power models ("for faster simulation, we profile the tick-to-trade
// and power consumption of each system … and use them in the simulation
// framework") so runs are exactly re-runnable.
package sim

import (
	"context"
	"math"
	"sort"

	"lighttrader/internal/feed"
)

// NoEvent is returned by SystemModel.NextEventTime when no internal event
// is pending.
const NoEvent = math.MaxInt64

// Query is one market-data event presented to the system under test.
type Query struct {
	ID           int64
	ArrivalNanos int64
	// DeadlineNanos is the absolute time by which the order must leave the
	// system (arrival + t_avail); later completion is a miss.
	DeadlineNanos int64
}

// Remaining returns the time budget left at now.
func (q Query) Remaining(now int64) int64 { return q.DeadlineNanos - now }

// Completion reports the fate of one query.
type Completion struct {
	Query Query
	// DoneNanos is when the order left the system (undefined if Dropped).
	DoneNanos int64
	// Dropped marks queries the system discarded (offload-queue eviction,
	// Algorithm 1's infeasible branch) rather than processed.
	Dropped bool
	// Batch is the batch size the query was served in (0 if dropped).
	Batch int
}

// SystemModel is a system under test: LightTrader, the GPU-based system, or
// the FPGA-based system. Implementations are single-threaded state machines
// driven by the engine strictly forward in time. OnArrival and Advance each
// return the queries that call finished or dropped, and the engine records
// them: a model holds no completion between calls.
type SystemModel interface {
	// Name identifies the system configuration.
	Name() string
	// Reset restores initial state so the model can be reused across runs.
	Reset()
	// OnArrival presents a query at its arrival time, returning the
	// queries the arrival dropped (an evicted or deferred query).
	OnArrival(now int64, q Query) []Completion
	// NextEventTime returns the time of the next internal event (a batch
	// or a service completing), or NoEvent.
	NextEventTime() int64
	// Advance processes internal events scheduled at exactly the returned
	// event time, returning any completed or dropped queries.
	Advance(now int64) []Completion
}

// Loaded is optionally implemented by systems that report their load. The
// engine reads it before each OnArrival/Advance to integrate the draw into
// Metrics.EnergyJoules, and, under a probe, after each call to emit the
// load that call left as a Sample (the engine fills TimeNanos).
type Loaded interface {
	Load() Sample
}

// RunOpts configures an instrumented run; the zero value reproduces the
// plain Run behaviour exactly.
type RunOpts struct {
	// Probe observes the run. The engine emits arrive and complete events
	// itself, and one load sample after each arrival and internal event for
	// systems implementing Loaded; systems implementing Instrumentable
	// additionally emit issue, evict, defer and DVFS events.
	Probe Probe
	// Ctx, when non-nil, lets the caller cancel the run mid-trace. See
	// WithContext for the partial-metrics contract.
	Ctx context.Context
}

// RunOption mutates RunOpts (functional options for RunWithOptions).
type RunOption func(*RunOpts)

// WithProbe attaches a probe to the run.
func WithProbe(p Probe) RunOption { return func(o *RunOpts) { o.Probe = p } }

// WithContext makes the run cancellable: when ctx is cancelled the engine
// stops presenting new arrivals, abandons undrained internal events, and
// returns metrics computed over exactly the queries presented so far — a
// consistent partial state (rates, percentiles and energy all refer to the
// same truncated prefix; queries still in flight count as Unaccounted).
func WithContext(ctx context.Context) RunOption { return func(o *RunOpts) { o.Ctx = ctx } }

// Run replays queries (which must be sorted by arrival time) through sys
// and computes metrics. deterministic: same inputs → same outputs.
func Run(queries []Query, sys SystemModel) Metrics {
	return RunWithOptions(queries, sys)
}

// RunWithOptions is Run with observability options. Probes are strictly
// observe-only: an instrumented run is bit-identical to a bare one.
func RunWithOptions(queries []Query, sys SystemModel, opts ...RunOption) Metrics {
	var o RunOpts
	for _, opt := range opts {
		opt(&o)
	}
	sys.Reset()
	if o.Probe != nil {
		if in, ok := sys.(Instrumentable); ok {
			in.SetProbe(o.Probe)
			defer in.SetProbe(nil)
		}
	}
	// observe forwards engine-visible lifecycle events: dropped completions
	// are already attributed (evict/defer) by instrumented systems, so the
	// engine reports only served completions.
	observe := func(cs []Completion) {
		if o.Probe == nil {
			return
		}
		for _, c := range cs {
			if c.Dropped {
				continue
			}
			o.Probe.OnQueryEvent(QueryEvent{
				TimeNanos: c.DoneNanos, Kind: QueryComplete, Query: c.Query,
				Accel: -1, Batch: c.Batch, DoneNanos: c.DoneNanos,
			})
		}
	}
	// accrue integrates the draw the last system call left up to now,
	// before the next call; sample reports the load a call left, after it.
	loaded, _ := sys.(Loaded)
	var energyJ float64
	lastAt, started := int64(0), false
	accrue := func(now int64) {
		if loaded == nil {
			return
		}
		if !started {
			lastAt, started = now, true
		} else if dt := float64(now-lastAt) / 1e9; dt > 0 {
			energyJ += loaded.Load().PowerWatts * dt
			lastAt = now
		}
	}
	sample := func(now int64) {
		if loaded != nil && o.Probe != nil {
			smp := loaded.Load()
			smp.TimeNanos = now
			o.Probe.OnSample(smp)
		}
	}
	// cancelled polls the context at most every cancelCheckStride arrivals;
	// the stride keeps the uncancelled hot loop free of channel operations.
	fed := 0
	cancelled := func() bool {
		return o.Ctx != nil && fed%cancelCheckStride == 0 && o.Ctx.Err() != nil
	}
	completions := make([]Completion, 0, len(queries))
	record := func(t int64, done []Completion) {
		sample(t)
		observe(done)
		completions = append(completions, done...)
	}
	advance := func(t int64) {
		accrue(t)
		record(t, sys.Advance(t))
	}
	for _, q := range queries {
		if cancelled() {
			break
		}
		for {
			t := sys.NextEventTime()
			if t == NoEvent || t > q.ArrivalNanos {
				break
			}
			advance(t)
		}
		if o.Probe != nil {
			o.Probe.OnQueryEvent(QueryEvent{
				TimeNanos: q.ArrivalNanos, Kind: QueryArrive, Query: q, Accel: -1,
			})
		}
		accrue(q.ArrivalNanos)
		record(q.ArrivalNanos, sys.OnArrival(q.ArrivalNanos, q))
		fed++
	}
	if fed == len(queries) {
		for {
			t := sys.NextEventTime()
			if t == NoEvent {
				break
			}
			advance(t)
		}
	}
	m := computeMetrics(queries[:fed], completions)
	m.System = sys.Name()
	m.EnergyJoules = energyJ
	if fed > 1 {
		span := float64(queries[fed-1].ArrivalNanos-queries[0].ArrivalNanos) / 1e9
		if span > 0 {
			m.AvgPowerWatts = m.EnergyJoules / span
		}
	}
	return m
}

// cancelCheckStride is how many arrivals pass between context polls in a
// cancellable run; it bounds both cancellation latency and polling cost.
const cancelCheckStride = 64

// Metrics summarises one run.
type Metrics struct {
	System    string
	Total     int
	Responded int
	// Dropped counts queries evicted without processing.
	Dropped int
	// Late counts queries processed but after their deadline.
	Late int
	// Unaccounted counts queries with no completion record (system bug).
	Unaccounted int

	ResponseRate float64 // responded / total
	MissRate     float64 // 1 - ResponseRate

	// Tick-to-trade latency over responded queries, nanoseconds.
	MeanLatencyNanos int64
	P50LatencyNanos  int64
	P99LatencyNanos  int64
	MaxLatencyNanos  int64

	// MeanBatch is the average batch size over served queries.
	MeanBatch float64

	EnergyJoules  float64
	AvgPowerWatts float64
}

func computeMetrics(queries []Query, completions []Completion) Metrics {
	var m Metrics
	m.Total = len(queries)
	seen := make(map[int64]bool, len(completions))
	var latencies []int64
	var batchSum, batchN int64
	for _, c := range completions {
		if seen[c.Query.ID] {
			continue // count each query once
		}
		seen[c.Query.ID] = true
		switch {
		case c.Dropped:
			m.Dropped++
		case c.DoneNanos > c.Query.DeadlineNanos:
			m.Late++
			batchSum += int64(c.Batch)
			batchN++
		default:
			m.Responded++
			latencies = append(latencies, c.DoneNanos-c.Query.ArrivalNanos)
			batchSum += int64(c.Batch)
			batchN++
		}
	}
	m.Unaccounted = m.Total - m.Responded - m.Dropped - m.Late
	if m.Total > 0 {
		m.ResponseRate = float64(m.Responded) / float64(m.Total)
		m.MissRate = 1 - m.ResponseRate
	}
	if batchN > 0 {
		m.MeanBatch = float64(batchSum) / float64(batchN)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum int64
		for _, l := range latencies {
			sum += l
		}
		m.MeanLatencyNanos = sum / int64(len(latencies))
		m.P50LatencyNanos = percentile(latencies, 0.50)
		m.P99LatencyNanos = percentile(latencies, 0.99)
		m.MaxLatencyNanos = latencies[len(latencies)-1]
	}
	return m
}

// percentile returns the nearest-rank percentile (index ceil(p·n)-1) of a
// sorted sample: the smallest value ≥ p of the distribution, never reading
// past the maximum (the former len*99/100 truncation returned the max for
// n=100).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// QueriesFromTicks converts a tick trace into a query stream with a fixed
// per-tick available time (the prediction-horizon budget t_avail).
func QueriesFromTicks(ticks []feed.Tick, tAvailNanos int64) []Query {
	qs := make([]Query, len(ticks))
	for i, t := range ticks {
		qs[i] = Query{
			ID:            int64(i),
			ArrivalNanos:  t.TimeNanos,
			DeadlineNanos: t.TimeNanos + tAvailNanos,
		}
	}
	return qs
}
