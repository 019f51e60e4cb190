package dash

import (
	"context"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/media"
	"bba/internal/telemetry"
	"bba/internal/units"
)

func TestMPDRoundTrip(t *testing.T) {
	video := testVideo(t, 30, media.DefaultChunkDuration)
	m := MPDFor(video)
	raw, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back MPD
	if err := xml.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	ladder := back.Ladder()
	if err := ladder.Validate(); err != nil {
		t.Fatalf("round-tripped ladder invalid: %v", err)
	}
	if len(ladder) != len(video.Ladder) || ladder.Min() != video.Ladder.Min() || ladder.Max() != video.Ladder.Max() {
		t.Errorf("ladder mismatch: %v", ladder)
	}
	if back.ChunkDuration() != video.ChunkDuration {
		t.Errorf("chunk duration %v, want %v", back.ChunkDuration(), video.ChunkDuration)
	}
	dur, err := back.Duration()
	if err != nil {
		t.Fatal(err)
	}
	if dur != video.Duration() {
		t.Errorf("duration %v, want %v", dur, video.Duration())
	}
}

func TestMPDShape(t *testing.T) {
	video := testVideo(t, 10, media.DefaultChunkDuration)
	m := MPDFor(video)
	if m.Type != "static" {
		t.Errorf("type = %q", m.Type)
	}
	if m.XMLNS != "urn:mpeg:dash:schema:mpd:2011" {
		t.Errorf("xmlns = %q", m.XMLNS)
	}
	st := m.Period.AdaptationSet.SegmentTemplate
	if !strings.Contains(st.Media, "$RepresentationID$") || !strings.Contains(st.Media, "$Number$") {
		t.Errorf("segment template %q missing substitution variables", st.Media)
	}
	if st.StartNumber != 0 {
		t.Errorf("startNumber = %d; chunks are zero-indexed here", st.StartNumber)
	}
	for i, r := range m.Period.AdaptationSet.Representations {
		if r.Bandwidth != int64(video.Ladder[i]) {
			t.Errorf("representation %d bandwidth %d, want %d", i, r.Bandwidth, int64(video.Ladder[i]))
		}
	}
}

func TestServerServesMPD(t *testing.T) {
	video := testVideo(t, 12, media.DefaultChunkDuration)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/manifest.mpd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/dash+xml" {
		t.Errorf("content type %q", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), xml.Header) {
		t.Error("MPD missing XML declaration")
	}
	var m MPD
	if err := xml.Unmarshal(raw, &m); err != nil {
		t.Fatalf("served MPD does not parse: %v", err)
	}
	// The segment template and a real chunk URL must agree: fetch the
	// chunk the template would address for representation 3, segment 5.
	url := ts.URL + strings.NewReplacer("$RepresentationID$", "3", "$Number$", "5").Replace(m.Period.AdaptationSet.SegmentTemplate.Media)
	chunkResp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, chunkResp.Body)
	chunkResp.Body.Close()
	if chunkResp.StatusCode != http.StatusOK {
		t.Fatalf("template-addressed chunk returned %s", chunkResp.Status)
	}
	if n != video.ChunkSize(3, 5) {
		t.Errorf("template-addressed chunk has %d bytes, want %d", n, video.ChunkSize(3, 5))
	}
}

func TestParseXSDuration(t *testing.T) {
	d, err := parseXSDuration("PT123.456S")
	if err != nil {
		t.Fatal(err)
	}
	if d != 123456*time.Millisecond {
		t.Errorf("parsed %v", d)
	}
	if _, err := parseXSDuration("123s"); err == nil {
		t.Error("bad duration accepted")
	}
}

func TestMPDLadderUnits(t *testing.T) {
	video := testVideo(t, 10, media.DefaultChunkDuration)
	m := MPDFor(video)
	if got := m.Ladder().Min(); got != 235*units.Kbps {
		t.Errorf("min rung %v", got)
	}
}

func TestStreamViaMPD(t *testing.T) {
	// A standards-only client: builds its model from the MPD (nominal
	// chunk sizes), streams the same chunks, still completes cleanly.
	video := testVideo(t, 20, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	capture := &telemetry.Capture{}
	res, err := Stream(context.Background(), ClientConfig{
		BaseURL:   ts.URL,
		Algorithm: abr.NewBBA2(),
		UseMPD:    true,
		Observer:  capture,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkCount() != 20 {
		t.Fatalf("downloaded %d chunks, want 20", res.ChunkCount())
	}
	if res.Rebuffers != 0 {
		t.Errorf("rebuffers = %d", res.Rebuffers)
	}
	// The client's model used nominal sizes, but the wire carried the
	// real VBR bytes — the recorded byte counts must match the encode,
	// not the model.
	for _, e := range capture.Events {
		if e.Kind == telemetry.ChunkComplete && e.Bytes != video.ChunkSize(e.RateIndex, e.Chunk) {
			t.Fatalf("chunk %d recorded %d bytes, encode has %d", e.Chunk, e.Bytes, video.ChunkSize(e.RateIndex, e.Chunk))
		}
	}
}
