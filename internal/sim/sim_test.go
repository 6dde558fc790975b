package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lighttrader/internal/feed"
)

// fifoServer is a minimal single-server system for engine tests.
type fifoServer struct {
	service int64
	// capacity bounds the waiting queue: an arrival that finds it full
	// evicts the oldest waiting query. Zero means unbounded.
	capacity int
	queue    []Query
	busy     bool
	doneAt   int64
	cur      Query
	// watts is the draw while serving, idleWatts while not.
	watts, idleWatts float64
}

func (f *fifoServer) Name() string { return "fifo" }
func (f *fifoServer) Reset() {
	f.queue = nil
	f.busy = false
}
func (f *fifoServer) OnArrival(now int64, q Query) []Completion {
	var out []Completion
	if f.capacity > 0 && len(f.queue) >= f.capacity {
		out = append(out, Completion{Query: f.queue[0], Dropped: true})
		f.queue = f.queue[1:]
	}
	f.queue = append(f.queue, q)
	f.dispatch(now)
	return out
}
func (f *fifoServer) dispatch(now int64) {
	if !f.busy && len(f.queue) > 0 {
		f.cur = f.queue[0]
		f.queue = f.queue[1:]
		f.busy = true
		f.doneAt = now + f.service
	}
}
func (f *fifoServer) NextEventTime() int64 {
	if f.busy {
		return f.doneAt
	}
	return NoEvent
}
func (f *fifoServer) Advance(now int64) []Completion {
	var out []Completion
	if f.busy && f.doneAt <= now {
		out = append(out, Completion{Query: f.cur, DoneNanos: f.doneAt, Batch: 1})
		f.busy = false
	}
	f.dispatch(now)
	return out
}
func (f *fifoServer) Load() Sample {
	s := Sample{QueueDepth: len(f.queue), PowerWatts: f.idleWatts}
	if f.busy {
		s.BusyAccels, s.PowerWatts = 1, f.watts
	}
	return s
}

func TestRunBasicAccounting(t *testing.T) {
	sys := &fifoServer{service: 100, watts: 10}
	queries := []Query{
		{ID: 0, ArrivalNanos: 0, DeadlineNanos: 1000},
		{ID: 1, ArrivalNanos: 10, DeadlineNanos: 1010},
		{ID: 2, ArrivalNanos: 20, DeadlineNanos: 120}, // waits 180 → late
	}
	m := Run(queries, sys)
	if m.Total != 3 || m.Unaccounted != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Responded != 2 || m.Late != 1 {
		t.Fatalf("responded=%d late=%d, want 2/1", m.Responded, m.Late)
	}
	// Query 0: latency 100. Query 1: starts at 100, done 200 → latency 190.
	if m.P50LatencyNanos != 190 && m.P50LatencyNanos != 100 {
		t.Fatalf("p50 = %d", m.P50LatencyNanos)
	}
	if m.MeanLatencyNanos != 145 {
		t.Fatalf("mean latency = %d, want (100+190)/2", m.MeanLatencyNanos)
	}
	if m.ResponseRate < 0.66 || m.ResponseRate > 0.67 {
		t.Fatalf("response rate = %v", m.ResponseRate)
	}
	if m.MissRate != 1-m.ResponseRate {
		t.Fatal("miss rate inconsistent")
	}
	if m.EnergyJoules <= 0 {
		t.Fatalf("energy = %v", m.EnergyJoules)
	}
}

func TestRunDeterministic(t *testing.T) {
	queries := make([]Query, 100)
	for i := range queries {
		queries[i] = Query{ID: int64(i), ArrivalNanos: int64(i * 37), DeadlineNanos: int64(i*37 + 500)}
	}
	m1 := Run(queries, &fifoServer{service: 50, watts: 1})
	m2 := Run(queries, &fifoServer{service: 50, watts: 1})
	if m1 != m2 {
		t.Fatalf("non-deterministic: %+v vs %+v", m1, m2)
	}
}

func TestRunEmpty(t *testing.T) {
	m := Run(nil, &fifoServer{service: 1})
	if m.Total != 0 || m.ResponseRate != 0 {
		t.Fatalf("empty run = %+v", m)
	}
}

func TestCompletionResponded(t *testing.T) {
	q := Query{DeadlineNanos: 100}
	if !(Completion{Query: q, DoneNanos: 100}).Responded() {
		t.Fatal("on-deadline completion must respond")
	}
	if (Completion{Query: q, DoneNanos: 101}).Responded() {
		t.Fatal("late completion responded")
	}
	if (Completion{Query: q, DoneNanos: 50, Dropped: true}).Responded() {
		t.Fatal("dropped completion responded")
	}
}

func TestQueriesFromTicks(t *testing.T) {
	ticks := []feed.Tick{{TimeNanos: 100}, {TimeNanos: 250}}
	qs := QueriesFromTicks(ticks, 1000)
	if len(qs) != 2 || qs[0].DeadlineNanos != 1100 || qs[1].ArrivalNanos != 250 {
		t.Fatalf("queries = %+v", qs)
	}
	if qs[1].Remaining(250) != 1000 {
		t.Fatalf("remaining = %d", qs[1].Remaining(250))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []int64 { // 1, 2, …, n (sorted)
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		name   string
		sorted []int64
		p      float64
		want   int64
	}{
		{"n=1 p50", seq(1), 0.50, 1},
		{"n=1 p99", seq(1), 0.99, 1},
		{"n=2 p50", seq(2), 0.50, 1},
		{"n=2 p99", seq(2), 0.99, 2},
		{"n=100 p50", seq(100), 0.50, 50},
		// The old len*99/100 truncation returned index 99 (the max) here;
		// nearest-rank ceil(0.99·100)-1 = 98.
		{"n=100 p99", seq(100), 0.99, 99},
		{"n=100 p100", seq(100), 1.00, 100},
		{"n=101 p99", seq(101), 0.99, 100},
		{"empty", nil, 0.99, 0},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestComputeMetricsUnaccounted(t *testing.T) {
	queries := []Query{
		{ID: 0, ArrivalNanos: 0, DeadlineNanos: 100},
		{ID: 1, ArrivalNanos: 10, DeadlineNanos: 110},
		{ID: 2, ArrivalNanos: 20, DeadlineNanos: 120},
	}
	// Query 1 never completes (a system bug the metrics must surface).
	m := computeMetrics(queries, []Completion{
		{Query: queries[0], DoneNanos: 50},
		{Query: queries[2], Dropped: true},
	})
	if m.Responded != 1 || m.Dropped != 1 || m.Unaccounted != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRunSetsSystemName(t *testing.T) {
	m := Run(nil, &fifoServer{service: 1})
	if m.System != "fifo" {
		t.Fatalf("System = %q, want fifo", m.System)
	}
}

func TestDuplicateCompletionsCountedOnce(t *testing.T) {
	queries := []Query{{ID: 0, ArrivalNanos: 0, DeadlineNanos: 100}}
	m := computeMetrics(queries, []Completion{
		{Query: queries[0], DoneNanos: 50},
		{Query: queries[0], DoneNanos: 60},
	})
	if m.Responded != 1 || m.Unaccounted != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRunWithContextCancellation(t *testing.T) {
	queries := make([]Query, 1000)
	for i := range queries {
		queries[i] = Query{ID: int64(i), ArrivalNanos: int64(i * 37), DeadlineNanos: int64(i*37 + 500)}
	}
	// A live context changes nothing.
	full := RunWithOptions(queries, &fifoServer{service: 50, watts: 1},
		WithContext(context.Background()))
	bare := Run(queries, &fifoServer{service: 50, watts: 1})
	if full != bare {
		t.Fatalf("live context perturbed the run:\n%+v\n%+v", full, bare)
	}
	// A pre-cancelled context presents no queries at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := RunWithOptions(queries, &fifoServer{service: 50, watts: 1}, WithContext(ctx))
	if m.Total != 0 || m.Responded != 0 || m.Unaccounted != 0 {
		t.Fatalf("cancelled run presented work: %+v", m)
	}
	// Cancelling mid-run leaves a consistent truncated prefix: every counted
	// query is accounted against Total, and Total covers only presented ones.
	midCtx, midCancel := context.WithCancel(context.Background())
	defer midCancel()
	stop := &cancelAfter{fifoServer: fifoServer{service: 50, watts: 1}, cancel: midCancel, after: 100}
	m = RunWithOptions(queries, stop, WithContext(midCtx))
	if m.Total == 0 || m.Total == len(queries) {
		t.Fatalf("expected truncation, got Total=%d", m.Total)
	}
	if m.Responded+m.Dropped+m.Late+m.Unaccounted != m.Total {
		t.Fatalf("inconsistent partial metrics: %+v", m)
	}
}

// cancelAfter cancels its context after a fixed number of arrivals.
type cancelAfter struct {
	fifoServer
	cancel context.CancelFunc
	after  int
	seen   int
}

func (c *cancelAfter) OnArrival(now int64, q Query) []Completion {
	c.seen++
	if c.seen == c.after {
		c.cancel()
	}
	return c.fifoServer.OnArrival(now, q)
}

// Responded reports whether the query was served within its deadline.
func (c Completion) Responded() bool { return !c.Dropped && c.DoneNanos <= c.Query.DeadlineNanos }

// loadSchedule is three queries through a 1 s fifoServer drawing 10 W busy
// and 2 W idle: q0 is served over [0 s, 1 s], q1 (arrived at 0.5 s) over
// [1 s, 2 s], the server idles until q2 arrives at 3 s and serves it over
// [3 s, 4 s]. The draw integrates to 10·2 + 10·1 + 2·1 + 10·1 = 32 J exactly.
func loadSchedule() ([]Query, *fifoServer) {
	const s = int64(1e9)
	return []Query{
		{ID: 0, ArrivalNanos: 0, DeadlineNanos: 10 * s},
		{ID: 1, ArrivalNanos: s / 2, DeadlineNanos: 10 * s},
		{ID: 2, ArrivalNanos: 3 * s, DeadlineNanos: 10 * s},
	}, &fifoServer{service: s, watts: 10, idleWatts: 2}
}

// logProbe records every event it sees as one line, in delivery order.
type logProbe struct{ lines []string }

func (p *logProbe) OnQueryEvent(e QueryEvent) {
	p.lines = append(p.lines, fmt.Sprintf("%v %s q%d", float64(e.TimeNanos)/1e9, e.Kind, e.Query.ID))
}
func (p *logProbe) OnDVFSEvent(DVFSEvent) { p.lines = append(p.lines, "dvfs") }
func (p *logProbe) OnSample(s Sample) {
	p.lines = append(p.lines, fmt.Sprintf("%v sample queue=%d busy=%d %gW",
		float64(s.TimeNanos)/1e9, s.QueueDepth, s.BusyAccels, s.PowerWatts))
}

func TestRunIntegratesLoadedDraw(t *testing.T) {
	queries, sys := loadSchedule()
	m := Run(queries, sys)
	if m.EnergyJoules != 32 {
		t.Fatalf("EnergyJoules = %v, want exactly 32", m.EnergyJoules)
	}
	if want := 32.0 / 3; m.AvgPowerWatts != want {
		t.Fatalf("AvgPowerWatts = %v, want 32 J over the 3 s arrival span = %v", m.AvgPowerWatts, want)
	}
}

func TestRunSamplesAfterEachCall(t *testing.T) {
	queries, sys := loadSchedule()
	p := &logProbe{}
	RunWithOptions(queries, sys, WithProbe(p))
	want := []string{
		"0 arrive q0",
		"0 sample queue=0 busy=1 10W",
		"0.5 arrive q1",
		"0.5 sample queue=1 busy=1 10W",
		"1 sample queue=0 busy=1 10W", // Advance(1 s): q0 done, q1 started
		"1 complete q0",
		"2 sample queue=0 busy=0 2W", // Advance(2 s): q1 done, idle
		"2 complete q1",
		"3 arrive q2",
		"3 sample queue=0 busy=1 10W",
		"4 sample queue=0 busy=0 2W",
		"4 complete q2",
	}
	if got := strings.Join(p.lines, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("events:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

func TestRunWithoutLoadHasNoSamplesOrEnergy(t *testing.T) {
	queries, sys := loadSchedule()
	p := &logProbe{}
	// Embedding the interface hides fifoServer's Load method.
	m := RunWithOptions(queries, struct{ SystemModel }{sys}, WithProbe(p))
	if m.EnergyJoules != 0 || m.AvgPowerWatts != 0 {
		t.Fatalf("energy = %v J, %v W; want 0 without a load report", m.EnergyJoules, m.AvgPowerWatts)
	}
	for _, l := range p.lines {
		if strings.Contains(l, "sample") {
			t.Fatalf("got %q from a system without a load report", l)
		}
	}
	if len(p.lines) != 6 || m.Responded != 3 {
		t.Fatalf("events %q, responded %d; want 3 arrive and 3 complete", p.lines, m.Responded)
	}
}

// announcing counts a fifoServer's Advance calls and those made at an
// instant other than the one NextEventTime last announced.
type announcing struct {
	*fifoServer
	announced     int64
	advances, off int
}

func (a *announcing) NextEventTime() int64 {
	a.announced = a.fifoServer.NextEventTime()
	return a.announced
}
func (a *announcing) Advance(now int64) []Completion {
	a.advances++
	if now != a.announced {
		a.off++
	}
	return a.fifoServer.Advance(now)
}

// TestRunRecordsArrivalDrops runs three queries through a 1 s fifoServer
// holding one waiting query: q0 is served over [0 s, 1 s], q1 waits from
// 0.25 s until q2's arrival at 0.5 s evicts it, and q2 is served over
// [1 s, 2 s]. The eviction reaches the metrics only through OnArrival's
// return, and the engine advances only at the two service completions.
func TestRunRecordsArrivalDrops(t *testing.T) {
	const s = int64(1e9)
	queries := []Query{
		{ID: 0, ArrivalNanos: 0, DeadlineNanos: 10 * s},
		{ID: 1, ArrivalNanos: s / 4, DeadlineNanos: 10 * s},
		{ID: 2, ArrivalNanos: s / 2, DeadlineNanos: 10 * s},
	}
	sys := &announcing{fifoServer: &fifoServer{service: s, capacity: 1, watts: 10, idleWatts: 2}}
	p := &logProbe{}
	m := RunWithOptions(queries, sys, WithProbe(p))
	if m.Responded != 2 || m.Dropped != 1 || m.Late != 0 || m.Unaccounted != 0 {
		t.Fatalf("metrics = %+v, want 2 responded, 1 dropped, 0 unaccounted", m)
	}
	if m.EnergyJoules != 20 {
		t.Fatalf("EnergyJoules = %v, want 10 W over [0 s, 2 s] = 20", m.EnergyJoules)
	}
	if sys.advances != 2 || sys.off != 0 {
		t.Fatalf("%d Advance calls, %d at an unannounced instant; want 2 and 0", sys.advances, sys.off)
	}
	want := []string{
		"0 arrive q0",
		"0 sample queue=0 busy=1 10W",
		"0.25 arrive q1",
		"0.25 sample queue=1 busy=1 10W",
		"0.5 arrive q2", // evicts q1: no event, one sample
		"0.5 sample queue=1 busy=1 10W",
		"1 sample queue=0 busy=1 10W",
		"1 complete q0",
		"2 sample queue=0 busy=0 2W",
		"2 complete q2",
	}
	if got := strings.Join(p.lines, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("events:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}
