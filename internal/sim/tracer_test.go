package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRingWrapKeepsNewestOldestFirst(t *testing.T) {
	r := newRing[int](3)
	for i := 1; i <= 5; i++ {
		r.append(i)
	}
	got := r.snapshot()
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("snapshot = %v, want [3 4 5]", got)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := newRing[int](4)
	r.append(7)
	r.append(8)
	if got := r.snapshot(); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("snapshot = %v, want [7 8]", got)
	}
}

func TestTracerAttribution(t *testing.T) {
	tr := NewTracer()
	q := func(id int64) Query { return Query{ID: id, DeadlineNanos: 100} }
	tr.OnQueryEvent(QueryEvent{Kind: QueryArrive, Query: q(0)})
	tr.OnQueryEvent(QueryEvent{Kind: QueryEvict, Query: q(0)})
	tr.OnQueryEvent(QueryEvent{Kind: QueryDefer, Query: q(1), Cause: CauseDeadline})
	tr.OnQueryEvent(QueryEvent{Kind: QueryDefer, Query: q(2), Cause: CausePower})
	tr.OnQueryEvent(QueryEvent{Kind: QueryDefer, Query: q(3)})                    // uncaused
	tr.OnQueryEvent(QueryEvent{Kind: QueryComplete, Query: q(4), DoneNanos: 150}) // late
	tr.OnQueryEvent(QueryEvent{Kind: QueryComplete, Query: q(5), DoneNanos: 50})  // on time
	a := tr.Attribution()
	want := MissAttribution{Evicted: 1, DeferredDeadline: 1, DeferredPower: 1, DeferredOther: 1, Late: 1}
	if a != want {
		t.Fatalf("attribution = %+v, want %+v", a, want)
	}
	if a.Total() != 5 {
		t.Fatalf("total = %d, want 5", a.Total())
	}
	if tr.Completed() != 2 || tr.Arrived() != 1 {
		t.Fatalf("completed=%d arrived=%d", tr.Completed(), tr.Arrived())
	}
	if !strings.Contains(tr.Summary(), "1 evicted") {
		t.Fatalf("summary: %s", tr.Summary())
	}
}

func TestTracerCountersSurviveRingWrap(t *testing.T) {
	tr := NewTracerCapacity(4)
	for i := 0; i < 100; i++ {
		tr.OnQueryEvent(QueryEvent{Kind: QueryEvict, Query: Query{ID: int64(i)}})
	}
	if got := tr.Attribution().Evicted; got != 100 {
		t.Fatalf("evicted = %d, want 100 (counters must survive wrap)", got)
	}
	if got := len(tr.QueryEvents()); got != 4 {
		t.Fatalf("retained = %d, want 4", got)
	}
}

func TestTracerSeriesStats(t *testing.T) {
	tr := NewTracer()
	// 10 W held for 1 s, then 30 W held for 3 s: time-weighted mean 25 W
	// over the last observed value ((10·1 + 30·3)/4), plain mean 20 W.
	tr.OnSample(Sample{TimeNanos: 0, PowerWatts: 10, QueueDepth: 2})
	tr.OnSample(Sample{TimeNanos: 1e9, PowerWatts: 30, QueueDepth: 4})
	tr.OnSample(Sample{TimeNanos: 4e9, PowerWatts: 30, QueueDepth: 0})
	p := tr.PowerStats()
	if p.Samples != 3 || p.Min != 10 || p.Max != 30 {
		t.Fatalf("power stats = %+v", p)
	}
	if p.TimeWeightedMean < 24.9 || p.TimeWeightedMean > 25.1 {
		t.Fatalf("time-weighted mean = %v, want 25", p.TimeWeightedMean)
	}
	q := tr.QueueStats()
	if q.Max != 4 || q.Min != 0 {
		t.Fatalf("queue stats = %+v", q)
	}
}

func TestEngineEmitsArriveAndComplete(t *testing.T) {
	tr := NewTracer()
	queries := []Query{
		{ID: 0, ArrivalNanos: 0, DeadlineNanos: 1000},
		{ID: 1, ArrivalNanos: 10, DeadlineNanos: 120}, // served at 100..200 → late
	}
	m := RunWithOptions(queries, &fifoServer{service: 100, watts: 1}, WithProbe(tr))
	if tr.Arrived() != 2 {
		t.Fatalf("arrived = %d, want 2", tr.Arrived())
	}
	if tr.Completed() != 2 {
		t.Fatalf("completed = %d, want 2", tr.Completed())
	}
	// fifoServer is not Instrumentable: the only miss signal is lateness,
	// which the engine's complete events carry.
	if a := tr.Attribution(); a.Late != m.Late || a.Late != 1 {
		t.Fatalf("late = %d, metrics late = %d", a.Late, m.Late)
	}
}

func TestProbeIsObserveOnly(t *testing.T) {
	queries := make([]Query, 50)
	for i := range queries {
		queries[i] = Query{ID: int64(i), ArrivalNanos: int64(i * 30), DeadlineNanos: int64(i*30 + 250)}
	}
	bare := Run(queries, &fifoServer{service: 40, watts: 2})
	traced := RunWithOptions(queries, &fifoServer{service: 40, watts: 2}, WithProbe(NewTracer()))
	if bare != traced {
		t.Fatalf("instrumented run diverged:\nbare   %+v\ntraced %+v", bare, traced)
	}
}

func TestWriteJSONLOrderedAndValid(t *testing.T) {
	tr := NewTracer()
	tr.OnSample(Sample{TimeNanos: 5, PowerWatts: 1})
	tr.OnQueryEvent(QueryEvent{TimeNanos: 1, Kind: QueryArrive, Query: Query{ID: 9}})
	tr.OnDVFSEvent(DVFSEvent{TimeNanos: 3, Accel: 0, Reason: DVFSSave, FromGHz: 2.2, ToGHz: 0.8})
	tr.OnQueryEvent(QueryEvent{TimeNanos: 7, Kind: QueryDefer, Query: Query{ID: 10}, Cause: CausePower})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	lastT := int64(-1)
	for _, line := range lines {
		var rec struct {
			Type  string `json:"type"`
			T     int64  `json:"t"`
			Cause string `json:"cause"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSON %q: %v", line, err)
		}
		if rec.T < lastT {
			t.Fatalf("timestamps out of order at %q", line)
		}
		lastT = rec.T
		if rec.Type == "" {
			t.Fatalf("missing type in %q", line)
		}
	}
	if !strings.Contains(lines[3], "power-infeasible") {
		t.Fatalf("defer cause not serialised: %q", lines[3])
	}
}
