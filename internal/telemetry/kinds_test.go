package telemetry

import (
	"testing"
)

// TestKindNamesExhaustive walks every declared Kind and fails if one was
// added to the taxonomy without a journal name, with a colliding name, or
// without a ParseKind round-trip. This is the guard that keeps journals
// self-describing: an event whose Kind stringifies to "unknown" can never
// be written by a correct emitter.
func TestKindNamesExhaustive(t *testing.T) {
	seen := make(map[string]Kind, int(numKinds))
	for k := SessionStart; k < numKinds; k++ {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Errorf("Kind %d has no entry in kindNames; add its journal name", uint8(k))
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("Kind %d and %d share the name %q", uint8(prev), uint8(k), name)
		}
		seen[name] = k
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Errorf("ParseKind(%q) = %d, %v; want %d, true", name, uint8(back), ok, uint8(k))
		}
	}
	if len(seen) != int(numKinds-SessionStart) {
		t.Errorf("%d named kinds for %d declared", len(seen), numKinds-SessionStart)
	}
}

// TestKindOutOfRange pins the behavior outside the taxonomy: the zero
// Kind, the sentinel and arbitrary bytes all stringify to "unknown", and
// no name parses to them.
func TestKindOutOfRange(t *testing.T) {
	for _, k := range []Kind{0, numKinds, numKinds + 1, 255} {
		if s := k.String(); s != "unknown" {
			t.Errorf("Kind(%d).String() = %q, want unknown", uint8(k), s)
		}
	}
	if k, ok := ParseKind("unknown"); ok {
		t.Errorf("ParseKind(unknown) resolved to %d", uint8(k))
	}
	if _, ok := ParseKind("not_an_event"); ok {
		t.Error("ParseKind accepted an undeclared name")
	}
}

// TestNoRetiredControlPlaneKinds keeps Kind the session and soak
// vocabulary. The campaign runner, the arena and the lease coordinator
// report through their own counters (campaign.Progress, coord.Stats and
// bbacoord's /metrics), so the control-plane kinds they once emitted into
// an Observer nothing set must not come back. TestGuards keeps those
// packages from importing this one.
func TestNoRetiredControlPlaneKinds(t *testing.T) {
	retired := []string{"campaign_progress", "arena_match", "worker_join", "lease_grant", "lease_expire"}
	named := 0
	for _, name := range kindNames {
		if name == "" {
			continue
		}
		named++
		for _, r := range retired {
			if name == r {
				t.Errorf("kindNames carries the retired control-plane kind %q", name)
			}
		}
	}
	if named != 16 {
		t.Errorf("kindNames has %d entries, want 16", named)
	}

}
