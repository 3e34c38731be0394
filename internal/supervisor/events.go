package supervisor

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventType classifies one entry of the supervisor's event stream.
type EventType string

// The event stream vocabulary: the full life of a failure, from first
// missed heartbeat to recovered deployment, plus the checkpoint cadence.
const (
	EventNodeSuspected       EventType = "node-suspected"
	EventFailureDetected     EventType = "failure-detected"
	EventNodeRetired         EventType = "node-retired"
	EventCheckpointInitiated EventType = "checkpoint-initiated"
	// EventCheckpointLocal marks the first watermark of multilevel
	// checkpointing: every member's capture is staged in its node's local
	// tier and replicated to the partner. The checkpoint is safe against any
	// single node loss but not yet a rollback target.
	EventCheckpointLocal   EventType = "checkpoint-locally-safe"
	EventCheckpointDurable EventType = "checkpoint-durable"
	// EventCheckpointPromoted records a recovery-time promotion: a
	// locally-safe checkpoint newer than the durable watermark was drained to
	// the remote plane (from the members' own tiers or their partners'
	// replicas) and became the rollback target.
	EventCheckpointPromoted EventType = "checkpoint-promoted"
	EventCheckpointFailed   EventType = "checkpoint-failed"
	EventRollbackPlanned    EventType = "rollback-planned"
	EventRestartAttempt     EventType = "restart-attempt"
	EventRestartDone        EventType = "restart-done"
	EventRecoveryFailed     EventType = "recovery-failed"

	// Storage-plane self-healing (Config.Repair): a confirmed node failure
	// triggers a background scrub + re-replication pass; repair-done's MTTR
	// field carries the storage MTTR (trigger to clean scrub).
	EventRepairStarted EventType = "storage-repair-started"
	EventRepairDone    EventType = "storage-repair-done"
	EventRepairFailed  EventType = "storage-repair-failed"

	// EventFlightArchived records that a confirmed-dead node's last mirrored
	// flight-recorder dump was frozen as its post-mortem (the FLIGHT op).
	EventFlightArchived EventType = "flight-archived"

	// Health plane (Config.Health): an SLO rule evaluated over the federated
	// history ring crossed into (or back out of) breach with hysteresis.
	EventAlertFiring   EventType = "alert-firing"
	EventAlertResolved EventType = "alert-resolved"
)

// Event is one structured entry of the supervisor's event stream.
type Event struct {
	Seq  int
	Time time.Time
	Type EventType

	Node    string        // the node concerned (failure events)
	Ckpt    int           // the checkpoint concerned (checkpoint/rollback events)
	Attempt int           // restart attempt number (restart events)
	MTTR    time.Duration // time from detection to resumed job (restart-done)
	// WorkLost estimates the computation discarded by the rollback: the time
	// elapsed since the rollback target became durable (rollback-planned).
	WorkLost time.Duration
	Detail   string
}

// String renders the event as one line, the format the EVENTS endpoint and
// blobcr-ctl print.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%04d %s %s", e.Seq, e.Time.Format("15:04:05.000"), e.Type)
	if e.Node != "" {
		fmt.Fprintf(&b, " node=%s", e.Node)
	}
	if e.Ckpt != 0 {
		fmt.Fprintf(&b, " ckpt=%d", e.Ckpt)
	}
	if e.Attempt != 0 {
		fmt.Fprintf(&b, " attempt=%d", e.Attempt)
	}
	if e.MTTR != 0 {
		fmt.Fprintf(&b, " mttr=%s", e.MTTR.Round(time.Microsecond))
	}
	if e.WorkLost != 0 {
		fmt.Fprintf(&b, " work-lost=%s", e.WorkLost.Round(time.Microsecond))
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// defaultEventBuffer bounds the retained event history.
const defaultEventBuffer = 1024

// EventLog is the supervisor's bounded event history plus live
// subscriptions. The history is a fixed-capacity ring allocated once at
// construction: a long-running supervise loop cannot grow memory without
// limit, and once the ring is full every append overwrites the oldest
// retained event. Overwrites are counted — Dropped() and the
// supervisor_events_dropped_total metric make the loss visible, and EVENTS
// consumers can detect the gap by comparing sequence numbers. Appends never
// block: a subscriber that falls behind loses events from its channel (the
// bounded history is the reliable record).
type EventLog struct {
	mu      sync.Mutex
	ring    []Event // fixed capacity, allocated once
	start   int     // index of the oldest retained event
	count   int     // retained events (≤ len(ring))
	dropped uint64  // events overwritten after the ring filled
	next    int     // next sequence number
	subs    map[int]chan Event
	nextID  int

	// onDrop, when set, is invoked (under the lock) once per overwritten
	// event; the supervisor wires it to the events-dropped counter.
	onDrop func()
}

// newEventLog returns an event log retaining up to limit events.
func newEventLog(limit int) *EventLog {
	if limit <= 0 {
		limit = defaultEventBuffer
	}
	return &EventLog{ring: make([]Event, limit), next: 1, subs: make(map[int]chan Event)}
}

// append stamps and stores the event, fanning it out to subscribers. The
// sends happen under the lock — they are non-blocking, and doing them
// inside the critical section is what keeps each subscriber's channel in
// sequence order across concurrent appenders.
func (l *EventLog) append(e Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.next
	l.next++
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if l.count == len(l.ring) {
		// Full: overwrite the oldest slot.
		l.start = (l.start + 1) % len(l.ring)
		l.count--
		l.dropped++
		if l.onDrop != nil {
			l.onDrop()
		}
	}
	l.ring[(l.start+l.count)%len(l.ring)] = e
	l.count++
	for _, ch := range l.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop, the history keeps the record
		}
	}
	return e
}

// Since returns the retained events with Seq > seq, oldest first.
func (l *EventLog) Since(seq int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.count)
	for i := 0; i < l.count; i++ {
		e := l.ring[(l.start+i)%len(l.ring)]
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	return out
}

// Dropped returns how many events have been overwritten since start: the
// count of history the ring could not retain.
func (l *EventLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Subscribe returns a channel receiving every event appended from now on,
// and a cancel function releasing it. The channel is buffered; a subscriber
// that stops draining loses events rather than blocking the supervisor.
func (l *EventLog) Subscribe() (<-chan Event, func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextID
	l.nextID++
	ch := make(chan Event, 256)
	l.subs[id] = ch
	return ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		delete(l.subs, id)
	}
}
