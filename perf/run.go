package main

import (
	"fmt"
	"runtime"
	"time"
)

// result is what one run of one workload produced.
type result struct {
	workload  string
	metrics   map[string]float64
	samples   map[string]int // sample count behind a percentile, by metric name
	attempted int
	failed    int
	problems  []string // output checks that did not hold
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// runOpts are the arguments of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64 // measuring time
	trace   bool    // add the traced hot phase and the staged layer timings
	outDir  string  // where span files go
	// rounds is how often the workload is set up and measured; every bounded
	// metric is summarised over rounds by calmLow or calmHigh.
	rounds int
}

// defaultRounds makes a round of a driver run 1.2 s long: short enough that
// a burst of a second spoils one or two rounds, long enough for 50 000 hot
// ticks on the stub workloads and 2 500 on wire-cnn.
const defaultRounds = 45

// phasePlan splits a run's measuring time. The end-to-end phases run in
// rounds, each on a freshly set-up trader: a disturbance (a neighbour's
// burst, an unlucky goroutine placement that lasts as long as the process's
// threads do) then spoils one round, and the better half of the rounds
// (calmLow, calmHigh) does not contain it.
// A traced run spends half its time that way and the rest on the traced hot
// phase and the staged layer timings.
type phasePlan struct {
	rounds          int
	hot, sat, paced time.Duration // per round
	traced, staged  time.Duration
}

func planFor(o runOpts) phasePlan {
	total := o.seconds
	p := phasePlan{rounds: o.rounds}
	if o.trace {
		p.traced = time.Duration(0.20 * total * float64(time.Second))
		p.staged = time.Duration(0.25 * total * float64(time.Second))
		total *= 0.5
	}
	round := total / float64(p.rounds)
	part := func(share float64) time.Duration { return time.Duration(share * round * float64(time.Second)) }
	p.hot, p.sat, p.paced = part(0.42), part(0.38), part(0.18)
	return p
}

// capacity is how many packets a harness must be able to record for a round.
func (spec wireSpec) capacity(plan phasePlan) int {
	n := int(plan.hot.Seconds()*float64(spec.hotCap)) + int(plan.sat.Seconds()*float64(spec.satCap)) +
		int(plan.paced.Seconds()*spec.pacedRate*1.2)
	return n + 8192 // warm-up and slack
}

// runWire runs one wire workload: rounds of set-up, hot, saturation and paced
// phases with tracing off, then (traced runs) the traced hot phase and the
// staged timings.
func runWire(spec wireSpec, o runOpts) (*result, error) {
	res := newResult(spec.name)
	plan := planFor(o)

	var setups, hotP50, hotP99, rate, allocs, bytes, achieved []float64
	var pacedNs, lateNs []int64
	var hotN, satN int
	var submitted, late, evicted, deferred, saves, redis, batches, batched float64
	var datagrams, dups, parked, gaps float64
	var st *stream
	for r := 0; r < plan.rounds; r++ {
		runtime.GC() // start every set-up from a collected heap, not from the last round's garbage
		start := time.Now()
		h, err := newHarness(spec, o.seed, spec.capacity(plan), false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		st = h.st

		hot := h.closedLoop(spec.hotWindow, plan.hot, int(plan.hot.Seconds()*float64(spec.hotCap)))
		sat, mem := measureAllocs(func() phase {
			return h.closedLoop(satWindow, plan.sat, int(plan.sat.Seconds()*float64(spec.satCap)))
		})
		paced, gen := h.paced(spec.pacedRate, plan.paced, o.seed^int64(0x5eed+r))

		hotP50 = append(hotP50, hot.lat.p50/1e3)
		hotP99 = append(hotP99, hot.lat.p99/1e3)
		hotN += hot.lat.n
		if sat.seconds > 0 {
			rate = append(rate, float64(sat.lat.n)/sat.seconds)
		}
		satN += sat.lat.n
		allocs, bytes = append(allocs, mem.allocs), append(bytes, mem.bytes)
		pacedNs, lateNs = append(pacedNs, paced.ns...), append(lateNs, gen.lateNs...)
		achieved = append(achieved, gen.achievedShare)
		for _, ph := range []phase{hot, sat, paced} {
			res.attempted += ph.ticks
			res.failed += ph.missed
		}
		res.failed += int(h.wrong.Load())
		for _, p := range h.verify() {
			res.problem("round %d: %s", r, p)
		}

		ss := h.mt.Serve().Stats()
		submitted += float64(ss.Submitted)
		late += float64(ss.Late)
		evicted += float64(ss.EvictedQueueFull)
		deferred += float64(ss.DeferredDeadline + ss.DeferredPower)
		saves += float64(ss.DVFSSaves)
		redis += float64(ss.DVFSRedistributes)
		batches += float64(ss.Batches)
		batched += ss.MeanBatch * float64(ss.Batches)
		as := h.mt.ArbiterStats()
		datagrams += float64(h.datagrams)
		dups += float64(as.Duplicates)
		parked += float64(as.Buffered)
		gaps += float64(as.Gaps)
		h.close()
	}

	res.set("setup_s", calmLow(setups))
	res.set("t2t_hot_p50_us", calmLow(hotP50))
	res.set("t2t_hot_p99_us", calmLow(hotP99))
	res.samples["t2t_hot_p50_us"], res.samples["t2t_hot_p99_us"] = hotN, hotN
	res.set("throughput_per_s", calmHigh(rate))
	res.samples["throughput_per_s"] = satN
	// The paced figures carry no bound; they pool every round's sample.
	pacedDist, lateDist := summarize(pacedNs), summarize(lateNs)
	res.set("t2t_paced_p50_us", pacedDist.p50/1e3)
	res.set("t2t_paced_p99_us", pacedDist.p99/1e3)
	res.samples["t2t_paced_p99_us"] = pacedDist.n
	res.set("gen.late_p50_us", lateDist.p50/1e3)
	res.set("gen.late_p99_us", lateDist.p99/1e3)
	res.set("gen.achieved_rate_share", medianFloat(achieved))
	// A phase of a few wake-ups (smoke runs) cannot be judged by its rate.
	if plan.paced >= 200*time.Millisecond && medianFloat(achieved) < 0.98 {
		res.problem("paced phases achieved only %.3f of the offered rate", medianFloat(achieved))
	}
	res.set("trader.allocs_per_tick", medianFloat(allocs))
	res.set("trader.bytes_per_tick", medianFloat(bytes))
	if res.attempted > 0 {
		res.set("order_miss_share", float64(res.failed)/float64(res.attempted))
	}
	if submitted > 0 && batches > 0 {
		res.set("serve.batch_mean", batched/batches)
		res.set("serve.late_share", late/submitted)
		res.set("serve.evicted_share", evicted/submitted)
		res.set("serve.deferred_share", deferred/submitted)
		res.set("serve.gov_saves", saves)
		res.set("serve.gov_redistributes", redis)
	}
	if datagrams > 0 {
		res.set("mdclient.dup_share", dups/datagrams)
		res.set("mdclient.parked_share", parked/datagrams)
	}
	res.set("mdclient.gaps", gaps)

	if o.trace {
		runtime.GC()
		if err := runTraced(spec, o, plan, res); err != nil {
			return nil, err
		}
		runStaged(st, o.seed, plan.staged, res)
	}
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}
