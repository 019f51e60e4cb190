package dash

import (
	"testing"
	"time"
)

// TestFetchPolicyPrecedence pins the withDefaults contract for the attempt
// budget: an explicit Fetch.MaxAttempts is kept, anything unset (<= 0)
// takes the built-in default.
func TestFetchPolicyPrecedence(t *testing.T) {
	cases := []struct {
		name        string
		maxAttempts int
		want        int
	}{
		{"only MaxAttempts", 7, 7},
		{"neither: default", 0, 4},
		{"negative MaxAttempts treated as unset", -1, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := FetchPolicy{MaxAttempts: c.maxAttempts}.withDefaults()
			if p.MaxAttempts != c.want {
				t.Errorf("MaxAttempts = %d, want %d", p.MaxAttempts, c.want)
			}
		})
	}
}

// TestFetchPolicyDefaults checks the remaining zero-value fills and that
// explicit values pass through untouched.
func TestFetchPolicyDefaults(t *testing.T) {
	p := FetchPolicy{}.withDefaults()
	if p.ChunkTimeout != 8*time.Second || p.BackoffBase != 200*time.Millisecond || p.BackoffCap != 5*time.Second {
		t.Errorf("zero-value defaults wrong: %+v", p)
	}
	set := FetchPolicy{
		ChunkTimeout: time.Second,
		MaxAttempts:  2,
		BackoffBase:  10 * time.Millisecond,
		BackoffCap:   time.Second,
		Seed:         99,
	}
	if got := set.withDefaults(); got != set {
		t.Errorf("explicit policy rewritten: %+v -> %+v", set, got)
	}
}
