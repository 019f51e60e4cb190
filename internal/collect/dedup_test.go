package collect

import "testing"

func TestStreamAdmitInOrder(t *testing.T) {
	var s stream
	for seq := uint64(0); seq < 10; seq++ {
		if !s.admitSlide(seq, 4) {
			t.Fatalf("seq %d refused", seq)
		}
	}
	for seq := uint64(0); seq < 10; seq++ {
		if s.admitSlide(seq, 4) {
			t.Fatalf("replay %d admitted", seq)
		}
	}
	if s.pending() != 0 {
		t.Fatalf("pending %d after contiguous run", s.pending())
	}
}

func TestStreamAdmitOutOfOrder(t *testing.T) {
	var s stream
	// Arrivals 2, 1, 0 — the reordered case — then replays of each.
	for _, seq := range []uint64{2, 1, 0} {
		if !s.freshSlide(seq) || !s.admitSlide(seq, 4) {
			t.Fatalf("seq %d refused", seq)
		}
	}
	if s.next != 3 || s.pending() != 0 {
		t.Fatalf("next=%d pending=%d, want 3/0", s.next, s.pending())
	}
	for _, seq := range []uint64{0, 1, 2} {
		if s.freshSlide(seq) || s.admitSlide(seq, 4) {
			t.Fatalf("replay %d admitted fresh", seq)
		}
	}
}

func TestStreamAdmitSlide(t *testing.T) {
	var s stream
	// Seq 5 is lost. 0–4 fold normally; 6, 7, 8 park; 9 overflows the
	// window and slides past the gap.
	for seq := uint64(0); seq < 5; seq++ {
		if !s.admitSlide(seq, 3) {
			t.Fatalf("seq %d refused", seq)
		}
	}
	for _, seq := range []uint64{6, 7, 8} {
		if !s.admitSlide(seq, 3) {
			t.Fatalf("seq %d refused", seq)
		}
	}
	if s.pending() != 3 {
		t.Fatalf("pending %d, want 3", s.pending())
	}
	if !s.admitSlide(9, 3) {
		t.Fatalf("seq 9 refused")
	}
	if s.next != 10 || s.pending() != 0 {
		t.Fatalf("next=%d pending=%d after slide, want 10/0", s.next, s.pending())
	}
	// The lost seq finally arrives — conceded, counted as a duplicate.
	if s.admitSlide(5, 3) {
		t.Fatalf("conceded seq 5 re-admitted: double count")
	}
	// Duplicates of delivered frames stay recognized.
	for _, seq := range []uint64{6, 9} {
		if s.admitSlide(seq, 3) {
			t.Fatalf("replay %d admitted", seq)
		}
	}
	if !s.admitSlide(10, 3) {
		t.Fatalf("seq 10 refused after slide")
	}
}

func TestStreamAdmitSlideParkedDup(t *testing.T) {
	var s stream
	if !s.admitSlide(4, 8) {
		t.Fatalf("seq 4 refused")
	}
	if s.admitSlide(4, 8) {
		t.Fatalf("parked replay admitted")
	}
	if s.pending() != 1 {
		t.Fatalf("pending %d, want 1", s.pending())
	}
}
