package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestEventRingOrderAndEviction(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 7; i++ {
		r.Emit(Event{Type: EventPlanSwap, Epoch: uint64(i)})
	}
	if got := r.Emitted(); got != 7 {
		t.Fatalf("Emitted() = %d, want 7", got)
	}
	s := r.Snapshot()
	if len(s) != 4 {
		t.Fatalf("snapshot length = %d, want cap 4", len(s))
	}
	// Most recent first: seqs 7,6,5,4 — epochs 6,5,4,3.
	for i, e := range s {
		if want := uint64(7 - i); e.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if want := uint64(6 - i); e.Epoch != want {
			t.Fatalf("snapshot[%d].Epoch = %d, want %d", i, e.Epoch, want)
		}
		if e.TimeUS <= 0 {
			t.Fatalf("snapshot[%d] missing timestamp", i)
		}
	}
}

func TestEventRingNilSafe(t *testing.T) {
	var r *EventRing
	r.Emit(Event{Type: EventSLOBurn})
	if r.Emitted() != 0 || r.Cap() != 0 || r.Snapshot() != nil {
		t.Fatal("nil ring must be a no-op")
	}
}

// TestEventRingBoundedUnderConcurrency hammers a small ring from many
// producers while snapshots race the writers (run with -race), and
// checks the bounded-memory property: snapshots never exceed the
// capacity, and every observed ledger is strictly seq-descending and
// schema-valid.
func TestEventRingBoundedUnderConcurrency(t *testing.T) {
	r := NewEventRing(8)
	const producers, perProducer = 8, 200
	stop := make(chan struct{})
	scraperDone := make(chan error, 1)
	go func() { // scraper racing the producers
		for {
			select {
			case <-stop:
				scraperDone <- nil
				return
			default:
			}
			if s := r.Snapshot(); len(s) > r.Cap() {
				scraperDone <- fmt.Errorf("snapshot grew past cap: %d > %d", len(s), r.Cap())
				return
			}
			b, err := json.Marshal(r)
			if err != nil {
				scraperDone <- err
				return
			}
			if err := ValidateEvents(b); err != nil {
				scraperDone <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r.Emit(Event{Type: EventBreakerTransition, Tenant: "t", Value: float64(p)})
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	if err := <-scraperDone; err != nil {
		t.Fatal(err)
	}
	if got := r.Emitted(); got != producers*perProducer {
		t.Fatalf("Emitted() = %d, want %d", got, producers*perProducer)
	}
	if s := r.Snapshot(); len(s) != r.Cap() {
		t.Fatalf("final snapshot = %d events, want %d", len(s), r.Cap())
	}
}

// TestEventJSONSchema pins the wire format of every event type: the
// exact field names dashboards key on, and omitempty behaviour for the
// optional fields.
func TestEventJSONSchema(t *testing.T) {
	r := NewEventRing(16)
	full := map[string]Event{
		EventTrialWinner:       {Type: EventTrialWinner, Tenant: "a", PlanFP: "fp1", Kernel: "csr-rowwise", Detail: "reordered", Value: 1.7},
		EventPlanSwap:          {Type: EventPlanSwap, Tenant: "a", Epoch: 3, PlanFP: "fp2", Kernel: "aspt-tiled"},
		EventOverlayDegraded:   {Type: EventOverlayDegraded, Tenant: "a", Epoch: 3, Detail: "budget exceeded"},
		EventBreakerTransition: {Type: EventBreakerTransition, Detail: "closed->open"},
		EventQuarantine:        {Type: EventQuarantine, Tenant: "a", Epoch: 4, Detail: "row 7 mismatch"},
		EventReinstate:         {Type: EventReinstate, Tenant: "a", Epoch: 5},
		EventSLOBurn:           {Type: EventSLOBurn, Tenant: "a", Detail: "error budget burning", Value: 2.5},
	}
	for _, e := range full {
		r.Emit(e)
	}
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEvents(body); err != nil {
		t.Fatalf("ring document invalid: %v\n%s", err, body)
	}
	var docs []map[string]any
	if err := json.Unmarshal(body, &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(full) {
		t.Fatalf("got %d events, want %d", len(docs), len(full))
	}
	for _, d := range docs {
		typ, _ := d["type"].(string)
		want := full[typ]
		// Required stamps on every event.
		for _, key := range []string{"seq", "time_us", "type"} {
			if _, ok := d[key]; !ok {
				t.Fatalf("%s: missing required field %q: %v", typ, key, d)
			}
		}
		// Optional fields appear exactly when set — no empty strings or
		// zeros leaking into the document.
		optional := map[string]bool{
			"tenant":  want.Tenant != "",
			"epoch":   want.Epoch != 0,
			"plan_fp": want.PlanFP != "",
			"kernel":  want.Kernel != "",
			"detail":  want.Detail != "",
			"value":   want.Value != 0,
		}
		for key, wantPresent := range optional {
			if _, ok := d[key]; ok != wantPresent {
				t.Fatalf("%s: field %q present=%v, want %v: %v", typ, key, ok, wantPresent, d)
			}
		}
		// And nothing beyond the schema.
		for key := range d {
			switch key {
			case "seq", "time_us", "type", "tenant", "epoch", "plan_fp", "kernel", "detail", "value":
			default:
				t.Fatalf("%s: unexpected field %q", typ, key)
			}
		}
	}
}

func TestValidateEventsRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"not an array", `{"seq":1}`, "not a JSON event array"},
		{"unknown type", `[{"seq":1,"time_us":5,"type":"mystery"}]`, "unknown type"},
		{"zero seq", `[{"seq":0,"time_us":5,"type":"plan_swap"}]`, "missing seq"},
		{"zero time", `[{"seq":1,"type":"plan_swap"}]`, "missing timestamp"},
		{"ascending seq", `[{"seq":1,"time_us":5,"type":"plan_swap"},{"seq":2,"time_us":5,"type":"plan_swap"}]`, "not descending"},
		{"duplicate seq", `[{"seq":2,"time_us":5,"type":"plan_swap"},{"seq":2,"time_us":5,"type":"plan_swap"}]`, "not descending"},
	}
	for _, tc := range cases {
		err := ValidateEvents([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	if err := ValidateEvents([]byte(`[]`)); err != nil {
		t.Fatalf("empty ledger must validate: %v", err)
	}
}
