package bench

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/scenario"
	"lighttrader/internal/serve"
	"lighttrader/internal/sim"
	"lighttrader/internal/testutil"
)

// TestScenarioMatrixSmoke runs the full chaos matrix at test scale and
// checks its shape and non-vacuity: every registered scenario ran on every
// configuration rung, the control cell is healthy, and the stress cells
// actually stress.
func TestScenarioMatrixSmoke(t *testing.T) {
	rows := ScenarioMatrixWorkers(ScenarioTAvailNanos, 2)
	wantRows := len(scenario.Names()) * len(scenarioConfigs())
	if len(rows) != wantRows {
		t.Fatalf("matrix has %d rows, want %d", len(rows), wantRows)
	}
	byCell := map[[2]string]ScenarioRow{}
	for _, r := range rows {
		if r.Queries == 0 {
			t.Errorf("cell %s/%s replayed no queries", r.Scenario, r.Config)
		}
		byCell[[2]string{r.Scenario, r.Config}] = r
	}
	quiet := byCell[[2]string{"quiet", "n4-sufficient"}]
	if quiet.ResponseRate < 0.99 {
		t.Errorf("control cell quiet/n4-sufficient response %.4f; want ≥0.99", quiet.ResponseRate)
	}
	crash := byCell[[2]string{"flash-crash", "n1-tight"}]
	if crash.ResponseRate >= quiet.ResponseRate {
		t.Errorf("flash-crash/n1-tight response %.4f not worse than control %.4f; matrix is vacuous",
			crash.ResponseRate, quiet.ResponseRate)
	}
	misses := crash.Evicted + crash.DeferredDeadline + crash.DeferredPower + crash.Late
	if misses == 0 {
		t.Error("flash-crash/n1-tight produced no attributed misses")
	}
}

// runScenarioServe replays packet/arrival pairs through an N=1 modelled-
// clock serving runtime under the differential system config, observed by
// probe (nil for none).
func runScenarioServe(t *testing.T, src *scenario.Source, qs []sim.Query,
	packets [][]byte, tAvail int64, probe sim.Probe) serve.Stats {
	t.Helper()
	srvCfg := powerDifferentialConfig()
	srv, err := serve.New(sourceMulti(src), serve.Config{
		Lanes:            1,
		ModelledClock:    true,
		MaxQueue:         srvCfg.MaxQueue,
		Sched:            &srvCfg.Sched,
		TAvailNanos:      tAvail,
		PrePipelineNanos: srvCfg.PrePipelineNanos,
		Probe:            probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if err := srv.Submit(q.ArrivalNanos, packets[i]); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	return srv.Stats()
}

// TestScenarioSimServeVenueDifferential is the acceptance differential:
// one flash-crash byte stream drives (a) the offline simulator, (b) the
// serving runtime — which agree exactly on per-cause attribution at N=1 —
// and (c) a live venue plays a short script derived from it over UDP into
// a second serving runtime, which must agree exactly with one fed the
// script directly. The venue hop is checked byte-for-byte, so what the wire
// carries IS the scenario.
func TestScenarioSimServeVenueDifferential(t *testing.T) {
	const tAvail = 900_000
	src, err := scenario.ByName("flash-crash", 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := src.Queries(tAvail)
	packets := src.Packets()
	if len(qs) != len(packets) {
		t.Fatalf("%d queries for %d packets", len(qs), len(packets))
	}

	// Leg 1: the offline simulator with per-cause tracing.
	simCfg := powerDifferentialConfig()
	sys, err := core.NewSystem(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.NewTracer()
	m := sim.RunWithOptions(qs, sys, sim.WithProbe(tr))
	attr := tr.Attribution()

	// Leg 2: the serving runtime on the same bytes.
	st := runScenarioServe(t, src, qs, packets, tAvail, nil)

	if st.Submitted != m.Total {
		t.Errorf("submitted: serve %d, sim %d", st.Submitted, m.Total)
	}
	if st.Served != m.Responded {
		t.Errorf("responded: serve %d, sim %d", st.Served, m.Responded)
	}
	if st.Late != m.Late {
		t.Errorf("late: serve %d, sim %d", st.Late, m.Late)
	}
	if st.EvictedQueueFull != attr.Evicted {
		t.Errorf("evicted: serve %d, sim %d", st.EvictedQueueFull, attr.Evicted)
	}
	if st.DeferredDeadline != attr.DeferredDeadline {
		t.Errorf("deferred-deadline: serve %d, sim %d", st.DeferredDeadline, attr.DeferredDeadline)
	}
	if st.DeferredPower != attr.DeferredPower {
		t.Errorf("deferred-power: serve %d, sim %d", st.DeferredPower, attr.DeferredPower)
	}
	if m.Responded == 0 || m.Responded == m.Total {
		t.Errorf("vacuous differential: %d/%d served", m.Responded, m.Total)
	}

	// Leg 3: a live venue plays a short script derived from the same
	// scenario over real UDP; the wire bytes must be that script's bytes,
	// and a serving runtime fed from the wire must agree exactly with one
	// fed the script's packets directly.
	short := testutil.ShortScenario(t, "flash-crash", 1, 0.5)
	shortQs, shortPackets := short.Queries(tAvail), short.Packets()
	feedSock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feedSock.Close()
	_ = feedSock.(*net.UDPConn).SetReadBuffer(4 << 20) // the crash bursts outrun a default buffer
	recv := make(chan [][]byte, 1)
	go func() {
		var out [][]byte
		buf := make([]byte, 64<<10)
		for len(out) < len(shortPackets) {
			_ = feedSock.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, _, err := feedSock.ReadFrom(buf)
			if err != nil {
				break
			}
			out = append(out, bytes.Clone(buf[:n]))
		}
		recv <- out
	}()
	_, stopVenue := testutil.StartVenue(t, short, time.Hour, feedSock)
	received := <-recv
	stopVenue()
	if len(received) != len(shortPackets) {
		t.Fatalf("wire carried %d packets, the script %d", len(received), len(shortPackets))
	}
	for i := range shortPackets {
		if !bytes.Equal(received[i], shortPackets[i]) {
			t.Fatalf("wire packet %d differs from the scenario byte stream", i)
		}
	}
	stDirect := runScenarioServe(t, short, shortQs, shortPackets, tAvail, nil)
	stWire := runScenarioServe(t, short, shortQs, received, tAvail, nil)
	if !reflect.DeepEqual(stWire, stDirect) {
		t.Errorf("venue-played serve stats %+v differ from direct serve stats %+v", stWire, stDirect)
	}
	if stDirect.Submitted != len(shortPackets) {
		t.Errorf("wire leg submitted %d of %d packets", stDirect.Submitted, len(shortPackets))
	}
	t.Logf("sim/serve differential over %d packets: %d served, %d late, %d evicted, %d def-ddl, %d def-pw; venue leg %d packets",
		len(packets), st.Served, st.Late, st.EvictedQueueFull, st.DeferredDeadline, st.DeferredPower, len(shortPackets))
}
