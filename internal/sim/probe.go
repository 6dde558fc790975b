// Observability probes. The engine and instrumented system models emit
// typed events to an optional Probe so a run can be inspected — why a query
// missed (evicted vs deferred-infeasible vs late), when and why DVFS states
// changed, and how queue depth and power evolved — without perturbing the
// simulation: probes are strictly observe-only and emission is skipped
// entirely when no probe is attached, so instrumented and bare runs are
// bit-identical.
package sim

// QueryEventKind enumerates the query-lifecycle events a run can emit.
type QueryEventKind uint8

const (
	// QueryArrive: the query entered the system (emitted by the engine).
	QueryArrive QueryEventKind = iota
	// QueryIssue: the query was scheduled onto an accelerator as part of a
	// batch (emitted by the system model).
	QueryIssue
	// QueryComplete: the query finished processing, on time or late
	// (emitted by the engine from the completion record).
	QueryComplete
	// QueryEvict: stale-tensor management pushed the query out of the
	// offload FIFO to make room for a newer arrival (§III-A).
	QueryEvict
	// QueryDefer: Algorithm 1's candidate queue ended empty and the query
	// was deferred to the conventional pipeline (a drop for the AI path).
	QueryDefer
	// QueryDegrade: the full model was infeasible but the degrade ladder
	// admitted the batch against a cheaper model tier — an answered query
	// at reduced accuracy, not a miss. Emitted once per degraded batch for
	// its oldest query; Tier names the ladder rung.
	QueryDegrade
)

// String implements fmt.Stringer.
func (k QueryEventKind) String() string {
	switch k {
	case QueryArrive:
		return "arrive"
	case QueryIssue:
		return "issue"
	case QueryComplete:
		return "complete"
	case QueryEvict:
		return "evict"
	case QueryDefer:
		return "defer"
	case QueryDegrade:
		return "degrade"
	default:
		return "QueryEventKind(?)"
	}
}

// DeferCause classifies why Algorithm 1 found no feasible candidate for a
// deferred query (sched.Verdict, mirrored here so sim stays dependency-free).
type DeferCause uint8

const (
	// CauseNone: not a defer event, or the system did not record a cause.
	CauseNone DeferCause = iota
	// CauseDeadline: every (dvfs, batch) candidate missed the deadline.
	CauseDeadline
	// CausePower: some candidate met the deadline but the unallocated
	// power budget blocked all of them.
	CausePower
)

// String implements fmt.Stringer.
func (c DeferCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseDeadline:
		return "deadline-infeasible"
	case CausePower:
		return "power-infeasible"
	default:
		return "DeferCause(?)"
	}
}

// QueryEvent is one query-lifecycle event.
type QueryEvent struct {
	TimeNanos int64
	Kind      QueryEventKind
	Query     Query
	// Accel is the accelerator issuing or completing the query; -1 when no
	// accelerator is involved (arrive, evict, defer).
	Accel int
	// Batch is the batch size the query was issued or completed in.
	Batch int
	// DoneNanos is the projected (issue) or actual (complete) finish time.
	DoneNanos int64
	// Cause classifies defer events.
	Cause DeferCause
	// Tier is the model tier the query was issued against: 0 is the
	// primary model, t > 0 the t-th rung of the degrade ladder. Set on
	// degrade events and on issue/complete events of degraded batches.
	Tier int
}

// DVFSReason says which scheduler path changed an accelerator's state.
type DVFSReason uint8

const (
	// DVFSAtIssue: Algorithm 1 selected the state when issuing a batch.
	DVFSAtIssue DVFSReason = iota
	// DVFSSave: Algorithm 2's power-saving step scaled a busy accelerator
	// down within its slack to make room for a blocked issue.
	DVFSSave
	// DVFSRedistribute: Algorithm 2 spent residual budget scaling a busy
	// accelerator up by marginal PPW.
	DVFSRedistribute
	// DVFSPark: DVFS scheduling parked a newly idle accelerator at the
	// power-floor state.
	DVFSPark
)

// String implements fmt.Stringer.
func (r DVFSReason) String() string {
	switch r {
	case DVFSAtIssue:
		return "issue"
	case DVFSSave:
		return "save"
	case DVFSRedistribute:
		return "redistribute"
	case DVFSPark:
		return "park"
	default:
		return "DVFSReason(?)"
	}
}

// DVFSEvent is one accelerator operating-point transition.
type DVFSEvent struct {
	TimeNanos int64
	Accel     int
	Reason    DVFSReason
	FromGHz   float64
	ToGHz     float64
	// RetimedNanos is the completion-time shift applied to an in-flight
	// batch (0 when the accelerator was idle).
	RetimedNanos int64
}

// Sample is a point-in-time observation of system load and draw: what a
// Loaded system reports, and what the engine emits after each OnArrival
// and Advance call, stamped with that call's time.
type Sample struct {
	TimeNanos int64
	// QueueDepth is the offload-engine FIFO occupancy after scheduling.
	QueueDepth int
	// BusyAccels is the number of accelerators with an in-flight batch.
	BusyAccels int
	// PowerWatts is the total instantaneous accelerator draw.
	PowerWatts float64
}

// Probe observes a run. Implementations must not mutate the system under
// test; the engine guarantees events are delivered in simulation-time order
// from a single goroutine.
type Probe interface {
	OnQueryEvent(QueryEvent)
	OnDVFSEvent(DVFSEvent)
	OnSample(Sample)
}

// Instrumentable is optionally implemented by system models that can emit
// internal events (issue, evict, defer, DVFS). The engine attaches
// the run's probe after Reset and detaches it when the run ends; models
// must tolerate a nil probe.
type Instrumentable interface {
	SetProbe(Probe)
}
