package serve

import (
	"bytes"
	"strings"
	"testing"

	"mithra/internal/obs"
)

// testBreaker returns a small-window breaker with a journal capture.
func testBreaker(t *testing.T) (*breaker, *bytes.Buffer, *obs.Obs) {
	t.Helper()
	var buf bytes.Buffer
	o, err := obs.New(obs.Options{Metrics: true, JournalWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	b := newBreaker("synth", BreakerConfig{Window: 8, ErrBudget: 0.5, ProbeAfter: 4, Probes: 2}, o)
	return b, &buf, o
}

func TestBreakerTripsProbesAndRecloses(t *testing.T) {
	b, buf, o := testBreaker(t)
	if b.currentState() != breakerClosed {
		t.Fatal("breaker must start closed")
	}
	// Closed: failures within the budget (4 <= 0.5*8) do not trip.
	for i := 0; i < 4; i++ {
		b.onFailure("x")
	}
	if b.currentState() != breakerClosed {
		t.Fatal("tripped within the error budget")
	}
	// The fifth failure exceeds the budget.
	b.onFailure("x")
	if b.currentState() != breakerOpen {
		t.Fatal("did not trip past the error budget")
	}
	// Open: requests are rejected until the ProbeAfter-th schedules a probe.
	for i := 0; i < 3; i++ {
		if b.admit() {
			t.Fatalf("open breaker admitted request %d", i)
		}
	}
	if !b.admit() {
		t.Fatal("ProbeAfter-th request was not admitted as a probe")
	}
	if b.currentState() != breakerHalfOpen {
		t.Fatal("probe did not move the breaker to half-open")
	}
	// Half-open: a failure reopens.
	b.onFailure("probe failed")
	if b.currentState() != breakerOpen {
		t.Fatal("half-open failure did not reopen")
	}
	// Probe again; this time Probes consecutive successes close it.
	for i := 0; i < 3; i++ {
		b.admit()
	}
	if !b.admit() || b.currentState() != breakerHalfOpen {
		t.Fatal("second probe not scheduled")
	}
	b.onSuccess()
	if b.currentState() != breakerHalfOpen {
		t.Fatal("closed before Probes successes")
	}
	b.onSuccess()
	if b.currentState() != breakerClosed {
		t.Fatal("Probes successes did not re-close the breaker")
	}

	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
	journal := buf.String()
	for _, want := range []string{`"name":"breaker"`, `"to":"open"`, `"to":"half-open"`, `"to":"closed"`, `"reason":"probes healthy"`} {
		if !strings.Contains(journal, want) {
			t.Errorf("journal missing %s:\n%s", want, journal)
		}
	}
	if o.Counter("serve.breaker.open").Value() != 2 ||
		o.Counter("serve.breaker.half_open").Value() != 2 ||
		o.Counter("serve.breaker.closed").Value() != 1 {
		t.Errorf("transition counters open=%d half=%d closed=%d, want 2/2/1",
			o.Counter("serve.breaker.open").Value(),
			o.Counter("serve.breaker.half_open").Value(),
			o.Counter("serve.breaker.closed").Value())
	}
}

func TestBreakerWindowResets(t *testing.T) {
	b, _, _ := testBreaker(t)
	// Failures diluted across full windows never accumulate: 4 failures,
	// 4 successes, repeated — each window stays at the budget boundary.
	for round := 0; round < 5; round++ {
		for i := 0; i < 4; i++ {
			b.onFailure("x")
		}
		for i := 0; i < 4; i++ {
			b.onSuccess()
		}
	}
	if b.currentState() != breakerClosed {
		t.Fatal("window tally leaked across window boundaries")
	}
}

func TestBreakerForceOpen(t *testing.T) {
	b, _, _ := testBreaker(t)
	b.forceOpen("snapshot install failed")
	if b.currentState() != breakerOpen {
		t.Fatal("forceOpen did not open the breaker")
	}
	if b.admit() {
		t.Fatal("forced-open breaker admitted a request before the probe point")
	}
}
