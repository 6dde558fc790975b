package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ring is a fixed-capacity ring buffer: appends past capacity overwrite the
// oldest entries. The tracer keeps aggregate counters outside the rings so
// summaries stay exact even after a wrap.
type ring[T any] struct {
	buf  []T
	next int
}

func newRing[T any](capacity int) *ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &ring[T]{buf: make([]T, 0, capacity)}
}

func (r *ring[T]) append(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// snapshot returns the retained entries oldest-first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// DefaultTracerCapacity bounds each of the tracer's three event rings.
const DefaultTracerCapacity = 1 << 16

// Tracer is a Probe that records typed events into bounded ring buffers and
// maintains exact aggregate counters (miss attribution, DVFS transition
// counts, power/queue series statistics) that survive buffer wrap. A Tracer
// belongs to one run at a time and is not safe for concurrent use; the
// parallel experiment harness gives each run its own.
type Tracer struct {
	queries *ring[QueryEvent]
	dvfs    *ring[DVFSEvent]
	samples *ring[Sample]

	arrived   int
	issued    int
	completed int
	degrades  int
	attr      MissAttribution
	dvfsCount map[DVFSReason]int

	power queueSeries
	depth queueSeries
}

// queueSeries accumulates exact running statistics for one sampled series.
type queueSeries struct {
	n         int
	min, max  float64
	sum       float64
	lastT     int64
	lastV     float64
	weightedJ float64 // time-weighted integral (value · seconds)
	spanSecs  float64
}

func (s *queueSeries) observe(t int64, v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
		dt := float64(t-s.lastT) / 1e9
		if dt > 0 {
			s.weightedJ += s.lastV * dt
			s.spanSecs += dt
		}
	}
	s.sum += v
	s.n++
	s.lastT = t
	s.lastV = v
}

func (s *queueSeries) stats() SeriesStats {
	st := SeriesStats{Samples: s.n, Min: s.min, Max: s.max}
	if s.n > 0 {
		st.Mean = s.sum / float64(s.n)
	}
	if s.spanSecs > 0 {
		st.TimeWeightedMean = s.weightedJ / s.spanSecs
	} else {
		st.TimeWeightedMean = st.Mean
	}
	return st
}

// SeriesStats summarises one sampled time series.
type SeriesStats struct {
	Samples int
	Min     float64
	Max     float64
	// Mean is the per-sample mean; TimeWeightedMean weights each sample by
	// the interval it was in force (the physically meaningful average for
	// event-driven sampling).
	Mean             float64
	TimeWeightedMean float64
}

// MissAttribution classifies every miss of a run by its proximate cause.
// The classes are mutually exclusive: a query is evicted from the FIFO,
// deferred by Algorithm 1's infeasible branch, or processed late — so
// Total() equals Metrics.Dropped + Metrics.Late for an instrumented system.
type MissAttribution struct {
	// Evicted: pushed out of the offload FIFO by stale-tensor management.
	Evicted int
	// DeferredDeadline: deferred because no candidate met the deadline.
	DeferredDeadline int
	// DeferredPower: deferred because power blocked all deadline-feasible
	// candidates.
	DeferredPower int
	// DeferredOther: deferred with no recorded cause (un-instrumented
	// system or legacy event).
	DeferredOther int
	// Late: completed after the deadline.
	Late int
}

// Total is the number of attributed misses.
func (a MissAttribution) Total() int {
	return a.Evicted + a.DeferredDeadline + a.DeferredPower + a.DeferredOther + a.Late
}

// NewTracer builds a tracer with DefaultTracerCapacity per event ring.
func NewTracer() *Tracer { return NewTracerCapacity(DefaultTracerCapacity) }

// NewTracerCapacity builds a tracer retaining at most capacity events per
// ring (query, DVFS, sample); capacity < 1 is clamped to 1.
func NewTracerCapacity(capacity int) *Tracer {
	return &Tracer{
		queries:   newRing[QueryEvent](capacity),
		dvfs:      newRing[DVFSEvent](capacity),
		samples:   newRing[Sample](capacity),
		dvfsCount: make(map[DVFSReason]int),
	}
}

var _ Probe = (*Tracer)(nil)

// OnQueryEvent implements Probe.
func (t *Tracer) OnQueryEvent(e QueryEvent) {
	t.queries.append(e)
	switch e.Kind {
	case QueryArrive:
		t.arrived++
	case QueryIssue:
		t.issued++
	case QueryComplete:
		t.completed++
		if e.DoneNanos > e.Query.DeadlineNanos {
			t.attr.Late++
		}
	case QueryEvict:
		t.attr.Evicted++
	case QueryDefer:
		switch e.Cause {
		case CauseDeadline:
			t.attr.DeferredDeadline++
		case CausePower:
			t.attr.DeferredPower++
		default:
			t.attr.DeferredOther++
		}
	case QueryDegrade:
		// A degraded batch is answered, not missed: count it outside the
		// miss attribution.
		t.degrades++
	}
}

// OnDVFSEvent implements Probe.
func (t *Tracer) OnDVFSEvent(e DVFSEvent) {
	t.dvfs.append(e)
	t.dvfsCount[e.Reason]++
}

// OnSample implements Probe.
func (t *Tracer) OnSample(s Sample) {
	t.samples.append(s)
	t.power.observe(s.TimeNanos, s.PowerWatts)
	t.depth.observe(s.TimeNanos, float64(s.QueueDepth))
}

// Arrived, Issued and Completed return exact lifecycle counts.
func (t *Tracer) Arrived() int   { return t.arrived }
func (t *Tracer) Issued() int    { return t.issued }
func (t *Tracer) Completed() int { return t.completed }

// Attribution returns the per-cause miss classification.
func (t *Tracer) Attribution() MissAttribution { return t.attr }

// DVFSTransitions returns the transition count for one scheduler path.
func (t *Tracer) DVFSTransitions(r DVFSReason) int { return t.dvfsCount[r] }

// PowerStats summarises the sampled total accelerator draw.
func (t *Tracer) PowerStats() SeriesStats { return t.power.stats() }

// QueueStats summarises the sampled offload-FIFO depth.
func (t *Tracer) QueueStats() SeriesStats { return t.depth.stats() }

// QueryEvents returns the retained query events, oldest first. When more
// events than the ring capacity were emitted only the newest are retained;
// the counters and Attribution remain exact.
func (t *Tracer) QueryEvents() []QueryEvent { return t.queries.snapshot() }

// DVFSEvents returns the retained DVFS transitions, oldest first.
func (t *Tracer) DVFSEvents() []DVFSEvent { return t.dvfs.snapshot() }

// Samples returns the retained load/power samples, oldest first.
func (t *Tracer) Samples() []Sample { return t.samples.snapshot() }

// jsonl envelope records; enums serialise as their String form.
type queryEventJSON struct {
	Type      string `json:"type"`
	TimeNanos int64  `json:"t"`
	Kind      string `json:"kind"`
	QueryID   int64  `json:"query"`
	Arrival   int64  `json:"arrival"`
	Deadline  int64  `json:"deadline"`
	Accel     int    `json:"accel"`
	Batch     int    `json:"batch,omitempty"`
	DoneNanos int64  `json:"done,omitempty"`
	Cause     string `json:"cause,omitempty"`
	Tier      int    `json:"tier,omitempty"`
}

type dvfsEventJSON struct {
	Type         string  `json:"type"`
	TimeNanos    int64   `json:"t"`
	Accel        int     `json:"accel"`
	Reason       string  `json:"reason"`
	FromGHz      float64 `json:"from_ghz"`
	ToGHz        float64 `json:"to_ghz"`
	RetimedNanos int64   `json:"retimed,omitempty"`
}

type sampleJSON struct {
	Type       string  `json:"type"`
	TimeNanos  int64   `json:"t"`
	QueueDepth int     `json:"queue"`
	BusyAccels int     `json:"busy"`
	PowerWatts float64 `json:"watts"`
}

// WriteJSONL writes every retained event as one JSON object per line,
// merged across the three rings in simulation-time order, for offline
// analysis (ltbench -trace out.jsonl).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	qs, ds, ss := t.QueryEvents(), t.DVFSEvents(), t.Samples()
	qi, di, si := 0, 0, 0
	for qi < len(qs) || di < len(ds) || si < len(ss) {
		// Pick the stream whose head has the smallest timestamp; ties break
		// query < dvfs < sample for a stable merge.
		qt, dt, st := int64(NoEvent), int64(NoEvent), int64(NoEvent)
		if qi < len(qs) {
			qt = qs[qi].TimeNanos
		}
		if di < len(ds) {
			dt = ds[di].TimeNanos
		}
		if si < len(ss) {
			st = ss[si].TimeNanos
		}
		var rec any
		switch {
		case qt <= dt && qt <= st:
			e := qs[qi]
			qi++
			rec = queryEventJSON{
				Type: "query", TimeNanos: e.TimeNanos, Kind: e.Kind.String(),
				QueryID: e.Query.ID, Arrival: e.Query.ArrivalNanos,
				Deadline: e.Query.DeadlineNanos, Accel: e.Accel,
				Batch: e.Batch, DoneNanos: e.DoneNanos,
				Cause: causeJSON(e), Tier: e.Tier,
			}
		case dt <= st:
			e := ds[di]
			di++
			rec = dvfsEventJSON{
				Type: "dvfs", TimeNanos: e.TimeNanos, Accel: e.Accel,
				Reason: e.Reason.String(), FromGHz: e.FromGHz, ToGHz: e.ToGHz,
				RetimedNanos: e.RetimedNanos,
			}
		default:
			e := ss[si]
			si++
			rec = sampleJSON{
				Type: "sample", TimeNanos: e.TimeNanos, QueueDepth: e.QueueDepth,
				BusyAccels: e.BusyAccels, PowerWatts: e.PowerWatts,
			}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

func causeJSON(e QueryEvent) string {
	if e.Kind != QueryDefer {
		return ""
	}
	return e.Cause.String()
}

// Summary renders the run's attribution and load statistics.
func (t *Tracer) Summary() string {
	var b strings.Builder
	a := t.attr
	fmt.Fprintf(&b, "queries: %d arrived, %d issued, %d completed\n",
		t.arrived, t.issued, t.completed)
	fmt.Fprintf(&b, "misses (%d): %d evicted, %d deferred deadline-infeasible, %d deferred power-infeasible, %d deferred (uncaused), %d late\n",
		a.Total(), a.Evicted, a.DeferredDeadline, a.DeferredPower, a.DeferredOther, a.Late)
	if t.degrades > 0 {
		fmt.Fprintf(&b, "model degrades: %d batches issued on cheaper tiers\n", t.degrades)
	}
	fmt.Fprintf(&b, "dvfs transitions: %d at issue, %d save, %d redistribute, %d park\n",
		t.dvfsCount[DVFSAtIssue], t.dvfsCount[DVFSSave],
		t.dvfsCount[DVFSRedistribute], t.dvfsCount[DVFSPark])
	p, q := t.PowerStats(), t.QueueStats()
	fmt.Fprintf(&b, "power (W): min %.2f, time-weighted mean %.2f, max %.2f over %d samples\n",
		p.Min, p.TimeWeightedMean, p.Max, p.Samples)
	fmt.Fprintf(&b, "queue depth: min %.0f, time-weighted mean %.2f, max %.0f\n",
		q.Min, q.TimeWeightedMean, q.Max)
	return b.String()
}
