package collect

// Archiver persists admitted event batches. The collector calls Append
// once per fresh event frame, before the frame's sequence number is
// spent: a nil return means the batch is durably accepted and the frame
// will be acknowledged; one wrapping telemetry.ErrNotCanonical refuses
// the batch itself, and the frame is rejected permanently (a 400). Any other
// non-nil return means the batch was NOT persisted, the frame is NACKed for
// retry, and the collector's archive lane goes sticky-failed (see
// CollectorConfig.Archive). Batches are telemetry journal JSONL. Calls are
// serialized by the collector's lock; implementations must not retain the
// batch slice.
//
// archive.Store satisfies Archiver directly, giving the collector a
// queryable columnar archive: bbacollect -store and every soak cycle run
// the collector over one.
type Archiver interface {
	Append(run string, batch []byte) error
}
