package bench

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"lighttrader/internal/core"
	"lighttrader/internal/scenario"
	"lighttrader/internal/serve"
	"lighttrader/internal/sim"
	"lighttrader/internal/venue"
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
		Inline:           true,
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
// serving runtime, and (c) a live venue replaying the stream over UDP into
// a second serving runtime — and all three agree exactly on per-cause
// attribution at N=1. The venue hop is checked byte-for-byte, so what the
// wire carries IS the scenario.
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

	// Leg 3: the venue republishes the stream over real UDP; the wire bytes
	// must be the scenario bytes, and a second serving runtime fed from the
	// wire must agree with leg 2 exactly.
	feedSock, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feedSock.Close()
	vs, err := venue.NewServer(venue.ServerConfig{
		OrderAddr:        "127.0.0.1:0",
		FeedAddr:         feedSock.LocalAddr().String(),
		SecurityID:       99, // the venue's own listing stays out of the replay
		Symbol:           "RAW",
		SnapshotInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go vs.Run(ctx)

	// Drain the venue's own book-seeding packets before the replay.
	buf := make([]byte, 64<<10)
	for {
		feedSock.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if _, _, err := feedSock.ReadFrom(buf); err != nil {
			break
		}
	}

	received := make([][]byte, 0, len(packets))
	for i, pkt := range packets {
		if err := vs.PublishRaw(pkt); err != nil {
			t.Fatalf("PublishRaw packet %d: %v", i, err)
		}
		feedSock.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := feedSock.ReadFrom(buf)
		if err != nil {
			t.Fatalf("read packet %d: %v", i, err)
		}
		cp := make([]byte, n)
		copy(cp, buf[:n])
		received = append(received, cp)
	}
	for i := range packets {
		if !bytes.Equal(received[i], packets[i]) {
			t.Fatalf("wire packet %d differs from scenario byte stream", i)
		}
	}
	stWire := runScenarioServe(t, src, qs, received, tAvail, nil)
	if !reflect.DeepEqual(stWire, st) {
		t.Errorf("venue-replayed serve stats %+v differ from direct serve stats %+v", stWire, st)
	}
	t.Logf("three-way differential over %d packets: %d served, %d late, %d evicted, %d def-ddl, %d def-pw",
		len(packets), st.Served, st.Late, st.EvictedQueueFull, st.DeferredDeadline, st.DeferredPower)
}
