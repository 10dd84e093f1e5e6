package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Decision-event types recorded by the serving stack. Every event in a
// ring must carry one of these; ValidateEvents rejects anything else,
// the same way ValidateExposition rejects a malformed metrics scrape.
const (
	EventTrialWinner       = "trial_winner"       // online rr-vs-nr trial decided
	EventPlanSwap          = "plan_swap"          // background rebuild published a new plan
	EventOverlayDegraded   = "overlay_degraded"   // live rebuild loop gave up; overlay serving persists
	EventBreakerTransition = "breaker_transition" // circuit breaker changed state
	EventQuarantine        = "quarantine"         // integrity monitor opened (or re-opened) a quarantine
	EventReinstate         = "reinstate"          // probation window completed clean
	EventSLOBurn           = "slo_burn"           // per-tenant error-budget burn rate crossed 1
)

// eventTypes is the closed set of valid Event.Type values.
var eventTypes = map[string]bool{
	EventTrialWinner:       true,
	EventPlanSwap:          true,
	EventOverlayDegraded:   true,
	EventBreakerTransition: true,
	EventQuarantine:        true,
	EventReinstate:         true,
	EventSLOBurn:           true,
}

// Event is one structured decision record. Fields beyond Type are
// optional and flat — no nested maps — so emitting an event copies a
// fixed-size value and allocates nothing, keeping Emit legal on the
// zero-allocation serving path. Seq and TimeUS are stamped by Emit.
type Event struct {
	Seq    uint64  `json:"seq"`
	TimeUS int64   `json:"time_us"` // unix microseconds
	Type   string  `json:"type"`
	Tenant string  `json:"tenant,omitempty"`
	Epoch  uint64  `json:"epoch,omitempty"`   // live structural epoch at emit time
	PlanFP string  `json:"plan_fp,omitempty"` // plan-cache fingerprint of the serving plan
	Kernel string  `json:"kernel,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Value  float64 `json:"value,omitempty"` // type-specific scalar (ratio, seconds, ...)
}

// EventRing keeps the most recent decision events in a fixed-capacity
// ring. The slots are the pool: Emit overwrites the oldest slot in
// place, so steady-state emission reuses a bounded set of Event values
// and the ring's memory never grows past its construction size. All
// methods are nil-safe.
type EventRing struct {
	mu   sync.Mutex
	buf  []Event
	next int
	n    int
	seq  uint64
}

// NewEventRing returns a ring holding up to capacity events.
func NewEventRing(capacity int) *EventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &EventRing{buf: make([]Event, capacity)}
}

// Emit records one event, stamping its sequence number and timestamp
// and evicting the oldest event when the ring is full. It performs no
// allocations; a nil ring drops the event.
func (r *EventRing) Emit(e Event) {
	if r == nil {
		return
	}
	now := time.Now().UnixMicro()
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	e.TimeUS = now
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Emitted returns the total number of events ever emitted. When
// Emitted() <= Cap(), nothing has been evicted and a Snapshot is the
// exact ledger; soak tests use this to decide between exact and
// sampled reconciliation against the metric counters.
func (r *EventRing) Emitted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Cap returns the ring capacity.
func (r *EventRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Snapshot returns the ring's events, most recent first.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// MarshalJSON renders the ring as a JSON array of events, most recent
// first.
func (r *EventRing) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// ValidateEvents checks a /debug/events document against the event
// schema, mirroring what ValidateExposition does for /metrics: the
// body must be a JSON array of events whose types come from the closed
// event-type set, with positive timestamps and strictly descending
// sequence numbers (most recent first, no duplicates).
func ValidateEvents(data []byte) error {
	var evs []Event
	if err := json.Unmarshal(data, &evs); err != nil {
		return fmt.Errorf("events document is not a JSON event array: %w", err)
	}
	for i, e := range evs {
		if !eventTypes[e.Type] {
			return fmt.Errorf("event %d: unknown type %q", i, e.Type)
		}
		if e.Seq == 0 {
			return fmt.Errorf("event %d (%s): missing seq", i, e.Type)
		}
		if e.TimeUS <= 0 {
			return fmt.Errorf("event %d (%s): missing timestamp", i, e.Type)
		}
		if i > 0 && e.Seq >= evs[i-1].Seq {
			return fmt.Errorf("event %d: seq %d not descending after %d", i, e.Seq, evs[i-1].Seq)
		}
	}
	return nil
}
