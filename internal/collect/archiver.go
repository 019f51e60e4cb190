package collect

// Archiver admits event batches and owns the watermarks that decide it.
// The collector calls Admit once per event frame it does not refuse
// outright: below the watermark of stream (run, session) the frame is a
// duplicate (dup, nothing archived); otherwise its batch is archived and
// the watermark moves past seq, as one fact. A nil error admits the frame,
// to be acknowledged; one wrapping telemetry.ErrNotCanonical refuses the
// batch itself, a permanent 400. Any other error means neither batch nor
// watermark moved: the frame is NACKed for retry and the archive lane goes
// sticky-failed (see CollectorConfig.Archive). Batches are telemetry
// journal JSONL. Calls are serialized by the collector's lock;
// implementations must not retain the batch slice.
//
// archive.Store keeps the watermarks in its WALs, so a restart still knows
// every admitted frame: bbacollect -store and every soak cycle run over
// one. archive.Watermarks keeps them in memory and archives nothing: what a
// collector with no Archive admits through. Both count the streams they
// hold (Streams), which the collector reports.
type Archiver interface {
	Admit(run string, session, seq uint64, batch []byte) (dup bool, err error)
}
