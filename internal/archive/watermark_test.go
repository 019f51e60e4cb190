package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// admitted is one stream's last admitted frame in a test store.
type admitted struct{ session, seq uint64 }

// sealedStore admits frames of two streams and an Append of no stream into
// run "r", keeping the WAL's bytes, then seals them into block 1 and closes
// the store: it returns the sealed WAL's bytes, the journal, and each
// stream's last admitted frame.
func sealedStore(t *testing.T, dir string) (spentWAL, journal []byte, last []admitted) {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	frames := []struct {
		session, seq uint64
		from, to     int
	}{{1, 0, 0, 3}, {2, 0, 3, 5}, {1, 1, 5, 6}, {1, 4, 6, 9}}
	for _, f := range frames {
		batch := batchOf(f.from, f.to)
		if dup, err := s.Admit("r", f.session, f.seq, batch); dup || err != nil {
			t.Fatalf("Admit(%d, %d) = %v, %v", f.session, f.seq, dup, err)
		}
		journal = append(journal, batch...)
	}
	if err := s.Append("r", batchOf(9, 10)); err != nil {
		t.Fatal(err)
	}
	journal = append(journal, batchOf(9, 10)...)
	if spentWAL, err = os.ReadFile(filepath.Join(dir, "r", walFile(1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("r"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return spentWAL, journal, []admitted{{1, 4}, {2, 0}}
}

// TestSealCrashPointsRecoverWatermarks builds, as directory states, each
// point a seal can be killed at after its block is renamed into place: the
// spent WAL N still present with WAL N+1 absent, empty or holding a torn
// snapshot, and WAL N removed. A read-only view must export every line
// once; a writable reopen must too, remove the spent WAL, and know every
// stream's watermark — each last admitted frame a duplicate, the next one
// fresh.
func TestSealCrashPointsRecoverWatermarks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state func(t *testing.T, runDir string, spentWAL []byte)
	}{
		{"WAL N+1 absent", func(t *testing.T, runDir string, spentWAL []byte) {
			restore(t, runDir, spentWAL)
			if err := os.Remove(filepath.Join(runDir, walFile(2))); err != nil {
				t.Fatal(err)
			}
		}},
		{"WAL N+1 empty", func(t *testing.T, runDir string, spentWAL []byte) {
			restore(t, runDir, spentWAL)
			if err := os.Truncate(filepath.Join(runDir, walFile(2)), 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"WAL N+1 holding a torn snapshot", func(t *testing.T, runDir string, spentWAL []byte) {
			restore(t, runDir, spentWAL)
			next := filepath.Join(runDir, walFile(2))
			fi, err := os.Stat(next)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(next, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"WAL N removed", func(*testing.T, string, []byte) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			runDir := filepath.Join(dir, "r")
			spentWAL, journal, last := sealedStore(t, dir)
			tc.state(t, runDir, spentWAL)

			ro, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			exportIs(t, "read-only", ro, "r", journal)
			s, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			exportIs(t, "reopened", s, "r", journal)
			if _, err := os.Stat(filepath.Join(runDir, walFile(1))); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("the reopen kept the spent %s (%v)", walFile(1), err)
			}
			if got := s.Streams(); got != len(last) {
				t.Errorf("%d streams hold a watermark, want %d", got, len(last))
			}
			if st := s.Stats(); len(st) != 1 || st[0].Blocks != 1 || st[0].WALEvents != 0 {
				t.Errorf("stats %+v, want one block and an empty WAL", st)
			}
			for _, a := range last {
				if dup, err := s.Admit("r", a.session, a.seq, batchOf(0, 1)); !dup || err != nil {
					t.Errorf("stream %d's last admitted seq %d after the reopen: dup %v, %v; want a duplicate", a.session, a.seq, dup, err)
				}
			}
			fresh := batchOf(10, 12)
			if dup, err := s.Admit("r", last[0].session, last[0].seq+1, fresh); dup || err != nil {
				t.Fatalf("stream %d's next seq: dup %v, %v; want it admitted", last[0].session, dup, err)
			}
			exportIs(t, "after the reopen's admissions", s, "r", append(journal, fresh...))
			if err := s.CompactAll(); err != nil {
				t.Fatal(err)
			}
			exportIs(t, "sealed again", s, "r", append(journal, fresh...))
		})
	}
}

// restore puts the spent WAL of block 1 back, as a kill before its removal
// leaves it.
func restore(t *testing.T, runDir string, spentWAL []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(runDir, walFile(1)), spentWAL, 0o644); err != nil {
		t.Fatal(err)
	}
}

// recordEnds returns the offset just past each whole record of a WAL.
func recordEnds(t *testing.T, wal []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(wal); {
		l, n := binary.Uvarint(wal[off:])
		if n <= 0 {
			t.Fatalf("WAL record at %d: bad length", off)
		}
		off += n + int(l) + 4
		ends = append(ends, off)
	}
	return ends
}

// TestWALRecordNegativeTable holds the WAL reader to one verdict per damage:
// a record cut short, or one whose CRC fails, is a torn tail and the WAL is
// cut back to the last good record; a record whose CRC holds but which this
// store does not write — an unknown tag, a stream that does not parse, a
// first record that is not a snapshot, a WAL of the format before the
// watermarks, empty or not — is refused by a writable and a read-only open
// alike, naming the file, and left as it was.
func TestWALRecordNegativeTable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit("r", 7, 0, batchOf(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("r", batchOf(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "r", walFile(1)))
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, good) // the snapshot, the stream's batch, the batch of no stream
	if len(ends) != 3 {
		t.Fatalf("the WAL holds %d records, want 3", len(ends))
	}
	lines := [][]byte{nil, batchOf(0, 2), batchOf(0, 3)} // the journal after the first 1, 2, 3 records
	// last returns good with its last record reframed: its length moved by
	// grow, payload as given, and CRC crc.
	l, n := binary.Uvarint(good[ends[1]:])
	payload := good[ends[1]+n : ends[2]-4]
	crc := binary.LittleEndian.Uint32(good[ends[2]-4:])
	last := func(grow int, payload []byte, crc uint32) []byte {
		w := binary.AppendUvarint(bytes.Clone(good[:ends[1]]), uint64(int(l)+grow))
		return binary.LittleEndian.AppendUint32(append(w, payload...), crc)
	}
	edited := func(off int, b byte) []byte { // payload with the byte at off replaced
		p := bytes.Clone(payload)
		p[off] = b
		return p
	}
	withRecord := func(at int, payload []byte) []byte { // records before at, then payload's
		return rawRecord(bytes.Clone(good[:at]), payload)
	}
	const refused = -1
	rows := []struct {
		name string
		wal  []byte
		keep int // whole records kept, or refused
	}{
		{"good", good, 3},
		{"length grown past the file", last(8, payload, crc), 2},
		{"length shrunk", last(-1, payload, crc), 2},
		{"length zero: a zero-filled tail", append(bytes.Clone(good), make([]byte, 16)...), 3},
		{"tag, CRC broken", last(0, edited(0, 'x'), crc), 2},
		{"tag unknown, CRC holds", withRecord(ends[1], edited(0, 'x')), refused},
		{"payload, CRC broken", last(0, edited(3, '['), crc), 2},
		{"CRC", last(0, payload, crc^0xFF), 2},
		{"stream cut in its seq, CRC holds", withRecord(ends[0], []byte{recStream, 7, 0x80}), refused},
		{"stream overflowing, CRC holds", withRecord(ends[0], append([]byte{recStream}, bytes.Repeat([]byte{0xFF}, 11)...)), refused},
		{"stream missing, CRC holds", withRecord(ends[0], []byte{recStream}), refused},
		{"snapshot cut in a pair, CRC holds", append(rawRecord(nil, []byte{recSnapshot, 7, 0x80}), good[ends[0]:]...), refused},
		{"first record a batch, CRC holds", good[ends[0]:], refused},
		{"snapshot torn", good[:ends[0]-1], refused},
		{"before the watermarks", rawRecord(rawRecord(nil, batchOf(0, 2)), batchOf(2, 3)), refused},
		{"before the watermarks, empty", nil, refused},
	}
	for cut := ends[1] + 1; cut < ends[2]; cut++ {
		rows = append(rows, struct {
			name string
			wal  []byte
			keep int
		}{fmt.Sprintf("cut at byte %d of the last record", cut-ends[1]), good[:cut], 2})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "r", walFile(1))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, row.wal, 0o644); err != nil {
				t.Fatal(err)
			}
			if row.keep == refused {
				if _, err := OpenReadOnly(dir); err == nil || !strings.Contains(err.Error(), walFile(1)) {
					t.Errorf("OpenReadOnly: %v, want an error naming %s", err, walFile(1))
				}
				if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), walFile(1)) {
					t.Errorf("Open: %v, want an error naming %s", err, walFile(1))
				}
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, row.wal) {
					t.Errorf("the refused WAL is %d bytes (%v), was %d", len(got), err, len(row.wal))
				}
				return
			}
			want := lines[row.keep-1]
			ro, err := OpenReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			exportIs(t, "read-only", ro, "r", want)
			s, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			exportIs(t, "reopened", s, "r", want)
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(ends[row.keep-1]) {
				t.Errorf("the reopened WAL is %v bytes (%v), want it cut to %d", fi.Size(), err, ends[row.keep-1])
			}
			if dup, err := s.Admit("r", 7, 0, batchOf(0, 2)); dup != (row.keep > 1) || err != nil {
				t.Errorf("stream 7's seq 0 after the reopen: dup %v, %v; want dup %v", dup, err, row.keep > 1)
			}
		})
	}
}

// TestCompactAllSealsEveryHealthyRun: a run whose seal fails must not leave
// another unsealed. CompactAll used to return at the first failure, walking
// the runs in map order, so which healthy run a drain left in its WAL was
// chance; it seals every healthy run and returns the failures.
func TestCompactAllSealsEveryHealthyRun(t *testing.T) {
	foreign := []byte(`{"kind":"martian_event","session":"d0.w0.s9.BBA-0","at_ns":40}` + "\n")
	for i := 0; i < 8; i++ { // map order is chance: eight tries, both orders all but surely met
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []string{"a", "b"} {
			if err := s.Append(run, batchOf(0, 3)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, "a", walFile(1)), os.O_APPEND|os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(walRecord(nil, foreign))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if s, err = Open(Config{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		if err := s.CompactAll(); err == nil {
			t.Fatal("CompactAll over a poisoned run: nil, want its seal's error")
		}
		st := s.Stats()
		if len(st) != 2 || st[0].Blocks != 0 || st[1].Blocks != 1 || st[1].WALEvents != 0 {
			t.Fatalf("try %d: stats %+v after CompactAll, want run a unsealed and run b sealed", i, st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
