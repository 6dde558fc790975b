package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The traced run records eight contiguous boundaries per tick without
// editing the program: the benchmark owns the sockets on both ends, replaces
// ServeFeed with its own pump, wraps the predictor, and uses the signal hook
// and the order sink the program already offers.
//
//	T0 send stamp            (generator, just before the write)
//	T1 ReadFrom returns      (feed pump)
//	T2 OnDatagram returns    (feed pump)
//	T3 predictor entered     (lane)
//	T4 predictor returns     (lane)
//	T5 signal hook           (lane, after trading.OnPrediction)
//	T6 order sink            (lane, after gate, owner map, encode and TCP write)
//	T7 order frame read      (venue sink)
var stageNames = [7]string{
	"wire.udp", "trader.ingest", "serve.handoff", "nn.predict",
	"trading.on_prediction", "trader.route_send", "wire.tcp",
}

// traceFileTicks caps the ticks written to the span file; the stage medians
// use every traced tick.
const traceFileTicks = 10_000

// tickTrace is the boundaries of one traced tick.
type tickTrace struct {
	packet int
	t      [8]int64
}

// spans returns the tick's stage durations. A boundary stamped on another
// goroutine can precede the one before it (the lane may reach the predictor
// before the pump has returned from OnDatagram); such a stage is given zero
// length, and the overlap then shows up as a stage-sum error instead of a
// negative time.
func (tt *tickTrace) spans() (out [7]int64) {
	for k := 0; k < 7; k++ {
		if d := tt.t[k+1] - tt.t[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// collectTraces joins the per-packet and per-order stamps of a traced phase.
func (h *harness) collectTraces(ph phase) (traces []tickTrace, incomplete int) {
	for i := ph.from; i < ph.to; i++ {
		if !h.st.at(i).tick || h.lat[i] == 0 {
			continue
		}
		so := &h.syms[h.st.at(i).sym]
		ord := h.ordOf[i]
		tt := tickTrace{packet: i, t: [8]int64{
			h.sendT[i].Load(), h.t1[i].Load(), h.t2[i].Load(),
			so.t3[ord].Load(), so.t4[ord].Load(), so.t5[ord].Load(), so.t6[ord].Load(),
			h.t7[i],
		}}
		complete := true
		for _, v := range tt.t {
			complete = complete && v != 0
		}
		if !complete {
			incomplete++
			continue
		}
		traces = append(traces, tt)
	}
	return traces, incomplete
}

// runTraced sets the workload up again with the trace points installed, runs
// the hot phase, and turns the stamps into the per-stage metrics and the
// span file.
func runTraced(spec wireSpec, o runOpts, plan phasePlan, res *result) error {
	budget := int(plan.traced.Seconds() * float64(spec.hotCap))
	h, err := newHarness(spec, o.seed, budget+8192, true)
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", spec.name, err)
	}
	defer h.close()
	ph := h.closedLoop(spec.hotWindow, plan.traced, budget)
	for _, p := range h.verify() {
		res.problem("traced run: %s", p)
	}
	traces, incomplete := h.collectTraces(ph)
	if len(traces) == 0 || incomplete*100 > len(traces) {
		res.problem("traced run: %d complete and %d incomplete tick traces", len(traces), incomplete)
		return nil
	}

	var stage [7][]int64
	var errShare float64
	for i := range traces {
		tt := &traces[i]
		var sum int64
		for k, d := range tt.spans() {
			stage[k] = append(stage[k], d)
			sum += d
		}
		total := tt.t[7] - tt.t[0]
		diff := sum - total
		if diff < 0 {
			diff = -diff
		}
		errShare += float64(diff) / float64(total)
	}
	for k, name := range stageNames {
		sort.Slice(stage[k], func(a, b int) bool { return stage[k][a] < stage[k][b] })
		res.set(name+"_ns", float64(quantile(stage[k], 0.5)))
		res.samples[name+"_ns"] = len(stage[k])
	}
	res.set("trace.stage_sum_err_share", errShare/float64(len(traces)))
	res.set("trace.overhead_us", ph.lat.p50/1e3-res.metrics["t2t_hot_p50_us"])
	return writeSpans(filepath.Join(o.outDir, "trace-"+spec.name+".jsonl"), traces)
}

// writeSpans writes one root span per tick and one child span per stage. The
// spans of a tick share its trace id; a stage's parent is the root.
func writeSpans(path string, traces []tickTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if len(traces) > traceFileTicks {
		traces = traces[:traceFileTicks]
	}
	epoch := traces[0].t[0] // times are nanoseconds since the first traced send
	for i := range traces {
		tt := &traces[i]
		fmt.Fprintf(w, `{"trace":%d,"span":"tick","start":%d,"end":%d,"parent":""}`+"\n", tt.packet, tt.t[0]-epoch, tt.t[7]-epoch)
		for k, name := range stageNames {
			fmt.Fprintf(w, `{"trace":%d,"span":%q,"start":%d,"end":%d,"parent":"tick"}`+"\n", tt.packet, name, tt.t[k]-epoch, tt.t[k+1]-epoch)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
