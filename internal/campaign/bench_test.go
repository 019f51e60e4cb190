package campaign

import (
	"math/rand"
	"testing"

	"bba/internal/metrics"
)

// BenchmarkAccumMerge measures the campaign's merge path in isolation:
// folding 64 populated shard accumulator sets into a prefix in shard order
// — the per-shard cost every checkpoint fold, local or coordinator, pays.
func BenchmarkAccumMerge(b *testing.B) {
	const shards, perShard = 64, 1024
	names := []string{"Control", "BBA-2"}
	rng := rand.New(rand.NewSource(3))
	fleet := make([][]*GroupAccum, shards)
	key := uint64(0)
	for s := range fleet {
		fleet[s] = NewGroupAccums(names, 512)
		for i := 0; i < perShard; i++ {
			sess := metrics.Session{
				PlayHours:       0.1 + rng.Float64(),
				Rebuffers:       rng.Intn(4),
				Switches:        rng.Intn(20),
				AvgRateKbps:     500 + 3000*rng.Float64(),
				SteadyRateKbps:  500 + 3000*rng.Float64(),
				SteadyReached:   true,
				StartupRateKbps: 300 + 2000*rng.Float64(),
				QoE:             rng.Float64(),
			}
			for _, a := range fleet[s] {
				if err := a.AddSession(key, sess); err != nil {
					b.Fatal(err)
				}
				key++
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix := NewGroupAccums(names, 512)
		for _, shard := range fleet {
			if err := mergeAccumSets(prefix, shard); err != nil {
				b.Fatal(err)
			}
		}
	}
}
