package collect

// stream is the exactly-once admission state of one (run, session) sender
// stream: every seq below next has been admitted, and parked holds the
// out-of-order admitted seqs above it. Memory is bounded by the window —
// the stream never forgets an admitted seq that a duplicate could replay.
type stream struct {
	next   uint64
	parked map[uint64]struct{}
}

// admitSlide decides frame seq's fate once per key: true the first time a
// seq is offered, false for every replay. It never rejects, instead sliding
// the window forward when a gap grows stale. A frame lost in flight (a batch
// dropped after exhausted retries) leaves a permanent gap; refusing frames
// beyond the window would park behind it forever. Sliding gives the gap up —
// duplicates older than the slide are still recognized as long as they
// arrive within the window, so event delivery is at-most-once within the
// window and the gap is honest, counted loss rather than silent
// double-counting. Callers must only call admitSlide after the frame is
// otherwise applied — an admitted seq is spent for good.
func (s *stream) admitSlide(seq uint64, window int) bool {
	if seq < s.next {
		return false
	}
	if _, ok := s.parked[seq]; ok {
		return false
	}
	if seq == s.next {
		s.next++
		s.foldParked()
		return true
	}
	if s.parked == nil {
		s.parked = make(map[uint64]struct{})
	}
	s.parked[seq] = struct{}{}
	if len(s.parked) > window {
		// Abandon the oldest gap: jump next to the smallest parked seq and
		// fold from there. Everything below is conceded lost.
		min := seq
		for p := range s.parked {
			if p < min {
				min = p
			}
		}
		s.next = min
		s.foldParked()
	}
	return true
}

// freshSlide reports whether admitSlide(seq, ...) would admit seq as
// fresh, without changing any state. The collector uses it to order
// side effects before admission: archive the batch only if the frame is
// fresh, then spend the seq — a failed archive write must leave the seq
// unspent so the retry is not mistaken for a duplicate.
func (s *stream) freshSlide(seq uint64) bool {
	if seq < s.next {
		return false
	}
	_, parked := s.parked[seq]
	return !parked
}

// foldParked folds the parked run contiguous with next.
func (s *stream) foldParked() {
	for len(s.parked) > 0 {
		if _, ok := s.parked[s.next]; !ok {
			return
		}
		delete(s.parked, s.next)
		s.next++
	}
}

// pending returns how many admitted seqs sit beyond the contiguous prefix.
func (s *stream) pending() int { return len(s.parked) }
