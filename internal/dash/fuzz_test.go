package dash

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"bba/internal/media"
)

// FuzzManifestRoundTrip holds the one document the client parses from the
// network to a round trip: any bytes the client's decode and Manifest.Video
// both accept describe a title whose ManifestFor is the decoded manifest,
// field for field. A manifest the client accepts but would render back
// differently — a numChunks no size row has, a chunk duration that
// overflows — is one the title does not faithfully describe. Inputs either
// step refuses are uninteresting: refusal is the correct handling of
// hostile data.
func FuzzManifestRoundTrip(f *testing.F) {
	v, err := media.NewCBR("fuzz-seed", media.DefaultLadder(), 4*time.Second, 6)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(ManifestFor(v))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"title":"t","chunkDurationMs":1,"ladderBps":[1],"numChunks":1,"sizesBytes":[[1]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		v, err := m.Video()
		if err != nil {
			return
		}
		if back := ManifestFor(v); !reflect.DeepEqual(back, m) {
			t.Fatalf("accepted manifest renders back differently:\ndecoded  %+v\nrendered %+v", m, back)
		}
	})
}

// TestManifestRefusesInconsistent: a manifest whose numChunks disagrees
// with its size rows, whose chunk duration overflows a time.Duration, or
// that trailing data follows, is refused with an error naming the field or
// the trailing data, not read as another title.
func TestManifestRefusesInconsistent(t *testing.T) {
	for _, c := range []struct {
		name, doc, field string
	}{
		{"numChunks beyond the size rows",
			`{"title":"t","chunkDurationMs":4000,"ladderBps":[235000,375000],"numChunks":5,"sizesBytes":[[1,2,3],[4,5,6]]}`,
			"numChunks"},
		{"numChunks short of the size rows",
			`{"title":"t","chunkDurationMs":4000,"ladderBps":[235000],"numChunks":2,"sizesBytes":[[1,2,3]]}`,
			"numChunks"},
		{"chunkDurationMs overflows",
			`{"title":"t","chunkDurationMs":9007199254740992,"ladderBps":[235000],"numChunks":3,"sizesBytes":[[1,2,3]]}`,
			"chunkDurationMs"},
		{"chunkDurationMs zero",
			`{"title":"t","chunkDurationMs":0,"ladderBps":[235000],"numChunks":3,"sizesBytes":[[1,2,3]]}`,
			"chunkDurationMs"},
		{"trailing data after the manifest",
			`{"title":"t","chunkDurationMs":4000,"ladderBps":[235000],"numChunks":3,"sizesBytes":[[1,2,3]]} <html>`,
			"trailing data"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := decodeManifest([]byte(c.doc))
			if err == nil {
				var v *media.Video
				if v, err = m.Video(); err == nil {
					t.Fatalf("accepted as %d chunks of %v", v.NumChunks(), v.ChunkDuration)
				}
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("err = %v, want one naming %s", err, c.field)
			}
		})
	}
}
