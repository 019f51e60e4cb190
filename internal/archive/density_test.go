package archive

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bba/internal/abtest"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
)

// densityJournal plays sessions real players emit — BBA-2 and Control
// alternating, fault weather on, each captured under an A/B session label —
// and interleaves them as a collector admits two shippers: 64-event batches,
// one lane then the other, each lane walking its own half of the sessions.
func densityJournal(t testing.TB, seed int64, sessions int) (batches [][]byte, events int) {
	t.Helper()
	catalog, err := media.NewCatalog(24, media.DefaultLadder(), seed)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := abtest.Groups("BBA-2", "Control")
	if err != nil {
		t.Fatal(err)
	}
	fc := faults.DefaultScheduleConfig()
	const lanes, batchEvents = 2, 64
	var lane [lanes][]telemetry.Event
	for i := 0; i < sessions; i++ {
		window, day := i%12, i/12%3
		u := abtest.DrawUser(abtest.PopulationConfig{}, window, day, abtest.SessionRNG(seed, day, window, i))
		env, err := abtest.NewSessionEnv(u, u.Pick(catalog), &fc, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		g := groups[i%len(groups)]
		pc := env.PlayerConfig(g)
		var capture telemetry.Capture
		pc.Observer = telemetry.Stamp{Session: fmt.Sprintf("d%d.w%d.s%d.%s", day, window, i, g.Name), Next: &capture}
		if _, err := player.Run(pc); err != nil {
			t.Fatal(err)
		}
		lane[i%lanes] = append(lane[i%lanes], capture.Events...)
	}
	for len(lane[0])+len(lane[1]) > 0 {
		for l := range lane {
			n := min(batchEvents, len(lane[l]))
			var batch []byte
			for _, e := range lane[l][:n] {
				batch = telemetry.AppendJSONL(batch, e)
			}
			lane[l] = lane[l][n:]
			if n > 0 {
				batches, events = append(batches, batch), events+n
			}
		}
	}
	return batches, events
}

// TestStoreBytesBudget guards the write path's end-to-end cost, bytes an
// archived event, on a journal of real sessions sealed by the store itself:
// a change to the block format or the encoder's choices that loses density
// fails here rather than in a benchmark run. The v3 store must also be no
// larger than the v2 encoding of the same blocks.
func TestStoreBytesBudget(t *testing.T) {
	// 26 643 events in two blocks: v3 measures 12.40 B an event, v2 16.67 B.
	// The budget is the v3 figure plus 3 %.
	const budget = 12.40 * 1.03
	batches, events := densityJournal(t, 1, 24)
	s, err := Open(Config{Dir: t.TempDir(), CompactEvents: 1 << 14, CompactBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range batches {
		if err := s.Append("fleet", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact("fleet"); err != nil {
		t.Fatal(err)
	}
	ra := s.runs["fleet"]
	var v3, v2 int
	for _, m := range ra.blocks {
		blk, err := os.ReadFile(m.path)
		if err != nil {
			t.Fatal(err)
		}
		v3 += len(blk)
		v2 += len(downgrade(t, blk, 2))
	}
	perEvent := float64(v3) / float64(events)
	t.Logf("%d events in %d blocks: v3 %.2f B an event, v2 %.2f B", events, len(ra.blocks), perEvent, float64(v2)/float64(events))
	if perEvent > budget {
		t.Errorf("the store costs %.2f B an event, over its %.2f B budget", perEvent, budget)
	}
	if v3 > v2 {
		t.Errorf("v3 blocks are %d bytes, the v2 encoding of the same lines %d", v3, v2)
	}
	// The v2 encoding is downgrade's, so downgrade must be the v2 encoder:
	// it reproduces the block that encoder sealed from the golden journal.
	golden, _, err := encodeBlock("golden", goldenJournal())
	if err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile(filepath.Join("testdata", "golden-v2.blk")); err != nil || !bytes.Equal(downgrade(t, golden, 2), want) {
		t.Errorf("downgrade of the golden journal's block is not testdata/golden-v2.blk (%v)", err)
	}
}
