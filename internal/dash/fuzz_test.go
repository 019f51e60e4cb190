package dash

import (
	"encoding/xml"
	"reflect"
	"testing"
	"time"

	"bba/internal/media"
)

// The fuzz target exercises the MPD parser with the round-trip property:
// any input the parser accepts must serialize back into a form the parser
// accepts again, with the semantic fields (ladder, duration) preserved.
// Inputs the parser rejects are uninteresting — rejection IS the correct
// handling of hostile data.

func fuzzVideo(f *testing.F) *media.Video {
	f.Helper()
	v, err := media.NewCBR("fuzz-seed", media.DefaultLadder(), 4*time.Second, 6)
	if err != nil {
		f.Fatal(err)
	}
	return v
}

func FuzzMPDRoundTrip(f *testing.F) {
	mpd, err := xml.MarshalIndent(MPDFor(fuzzVideo(f)), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mpd)
	f.Add([]byte(`<MPD mediaPresentationDuration="PT24S"></MPD>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m MPD
		if xml.Unmarshal(data, &m) != nil {
			return
		}
		out, err := xml.Marshal(m)
		if err != nil {
			// Accepted input that cannot re-serialize (e.g. attribute
			// values with invalid code points) is tolerable; the round
			// trip only applies to serializable documents.
			return
		}
		var m2 MPD
		if err := xml.Unmarshal(out, &m2); err != nil {
			t.Fatalf("re-parse of serialized MPD failed: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(m.Ladder(), m2.Ladder()) {
			t.Fatalf("ladder changed across round trip: %v -> %v", m.Ladder(), m2.Ladder())
		}
		d1, err1 := m.Duration()
		d2, err2 := m2.Duration()
		if (err1 == nil) != (err2 == nil) || d1 != d2 {
			t.Fatalf("duration changed across round trip: %v/%v -> %v/%v", d1, err1, d2, err2)
		}
	})
}
