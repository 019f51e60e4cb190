package player

import (
	"testing"
	"time"

	"bba/internal/telemetry"
)

// CheckEventGrammar holds one session's event stream to the grammar every
// driver of a Session must produce, and to its Result: bracketed by
// session_start and session_end, session clock never running backwards,
// rebuffer_start and rebuffer_end alternating and summing to the Result's
// count and stall time, an incomplete session's final rebuffer being the
// outage marker that never ends, and chunk and switch events agreeing with
// the rate record. It is exported (from a test file) so the external tests in
// this directory can hold dash.Stream's real-socket sessions to it too.
func CheckEventGrammar(t testing.TB, evs []telemetry.Event, res *Result) {
	t.Helper()
	if len(evs) < 2 {
		t.Fatalf("only %d events captured", len(evs))
	}
	if evs[0].Kind != telemetry.SessionStart {
		t.Errorf("first event is %v, want session_start", evs[0].Kind)
	}
	if evs[len(evs)-1].Kind != telemetry.SessionEnd {
		t.Errorf("last event is %v, want session_end", evs[len(evs)-1].Kind)
	}
	if end := evs[len(evs)-1]; end.At != res.End || end.Played != res.Played {
		t.Errorf("session_end at %v played %v, Result says %v and %v", end.At, end.Played, res.End, res.Played)
	}

	// Session clock never goes backwards.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event %d (%v at %v) precedes event %d (%v at %v)",
				i, evs[i].Kind, evs[i].At, i-1, evs[i-1].Kind, evs[i-1].At)
		}
	}

	// Rebuffer starts bracket the result's count, alternating with ends.
	starts, ends := 0, 0
	open, outage := false, false
	var stallTotal time.Duration
	for _, e := range evs {
		switch e.Kind {
		case telemetry.RebufferStart:
			if open {
				t.Fatal("rebuffer_start while a rebuffer is already open")
			}
			open = true
			outage = e.Label == "outage"
			starts++
		case telemetry.RebufferEnd:
			if !open {
				t.Fatal("rebuffer_end without a matching start")
			}
			if outage {
				t.Fatal("rebuffer_end after the outage marker: a permanent freeze does not end")
			}
			open = false
			ends++
			stallTotal += e.Duration
		}
	}
	if starts != res.Rebuffers {
		t.Errorf("rebuffer_start events = %d, Result.Rebuffers = %d", starts, res.Rebuffers)
	}
	if res.Incomplete {
		if !open || !outage {
			t.Error("incomplete session does not end inside an outage-marked rebuffer")
		}
	} else {
		if open {
			t.Error("session ended with a rebuffer still open")
		}
		if stallTotal != res.StallTime {
			t.Errorf("sum of rebuffer_end durations = %v, Result.StallTime = %v", stallTotal, res.StallTime)
		}
	}

	// Chunk events agree with the rate record.
	if n := countKind(evs, telemetry.ChunkComplete); n != res.ChunkCount() {
		t.Errorf("chunk_complete events = %d, Result.ChunkCount = %d", n, res.ChunkCount())
	}
	for i, c := range chunkLog(evs) {
		if i < res.ChunkCount() && c.Rate.Kilobits() != res.ChunkRateKbps(i) {
			t.Fatalf("chunk_complete %d at %v, Result.ChunkRateKbps = %v kb/s", i, c.Rate, res.ChunkRateKbps(i))
		}
	}
	if n := countKind(evs, telemetry.RateSwitch); n != res.Switches {
		t.Errorf("rate_switch events = %d, Result.Switches = %d", n, res.Switches)
	}
}
