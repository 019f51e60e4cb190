package collect

import "io"

// Archiver persists admitted event batches. The collector calls Append
// once per fresh event frame, before the frame's sequence number is
// spent: a nil return means the batch is durably accepted and the frame
// will be acknowledged; a non-nil return means the batch was NOT
// persisted, the frame is NACKed for retry, and the collector's archive
// lane goes sticky-failed (see CollectorConfig.Archive). Batches are
// telemetry journal JSONL. Calls are serialized by the collector's lock;
// implementations must not retain the batch slice.
//
// archive.Store satisfies Archiver directly, giving the collector a
// queryable columnar archive (bbacollect -store); WriterArchiver adapts
// an io.Writer as the in-memory sink soak's collector_agreement check and
// the collector tests read back.
type Archiver interface {
	Append(run string, batch []byte) error
}

// WriterArchiver adapts an io.Writer into an Archiver: every batch is
// appended to W verbatim, all runs interleaved, so W accumulates one
// valid journal JSONL stream in admission order. It is a capture, not a
// durable record: a nil Append return lets the collector acknowledge the
// frame, after which the shipper drops its only other copy.
type WriterArchiver struct {
	W io.Writer
}

// Append writes the batch to the underlying writer. A short write is an
// error: the collector must not acknowledge a half-persisted batch.
func (a WriterArchiver) Append(run string, batch []byte) error {
	n, err := a.W.Write(batch)
	if err == nil && n != len(batch) {
		err = io.ErrShortWrite
	}
	return err
}
