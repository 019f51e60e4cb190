package archive

import (
	"runtime"
	"time"

	"bba/internal/telemetry"
)

// maxWorkers caps the worker readers one query fans out to. A worker's
// reader holds the slabs of the block it prepared — twelve integer columns
// at 8 B and three dictionary columns at 4 B a row, plus its page buffers:
// ≈ 8 MB at the default 65 536 rows — so a query costs up to maxWorkers × 8 MB
// of slabs beside its caller's reader (and an Export as many blocks' lines),
// and the store keeps as much between queries.
const maxWorkers = 4

// maxIdleReaders is how many readers the store keeps between queries: one
// query's worth, its caller's reader and maxWorkers workers.
const maxIdleReaders = maxWorkers + 1

// maxNames bounds a reader's intern table between queries (≈ 0.4 MB of
// 20-byte labels); a WAL tail may grow it for its query (see putLocked).
const maxNames = 4096

// reader hands out the caller's reader for one query — the store's most
// recently released one, or a new one when it holds none — and starts the
// query's clock. It never waits: a Scan callback may run a query on the same
// store while its own readers are all out.
func (s *Store) reader() *Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.takeLocked()
	b.start = time.Now()
	return b
}

// takeLocked pops the newest idle reader, or makes one. Caller holds mu.
func (s *Store) takeLocked() *Block {
	if n := len(s.idle); n > 0 {
		b := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		return b
	}
	return &Block{names: telemetry.Interner{}}
}

// putLocked empties b of what it held for its query — the open file, block
// metas, the rollup's session set, its intern table's strings past maxNames
// — and keeps it, with the buffers those have grown to and the rest of that
// table, while the store holds fewer than maxIdleReaders. Caller holds mu.
func (s *Store) putLocked(b *Block) {
	b.close()
	clear(b.blocks)
	b.blocks = b.blocks[:0]
	for k := range b.names { // which go does not matter: the table stays full
		if len(b.names) <= maxNames {
			break
		}
		delete(b.names, k)
	}
	b.agg.reset()
	if len(s.idle) < maxIdleReaders {
		s.idle = append(s.idle, b)
	}
}

// release ends the query b was the caller's reader for: it records the
// query's wall time and the blocks it read and pruned, then returns b to the
// store. Its workers' readers are back already (see walk).
func (s *Store) release(b *Block) {
	took := time.Since(b.start).Seconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.querySeconds.Observe(took)
	s.blocksRead += int64(b.read)
	s.blocksPruned += int64(b.pruned)
	b.read, b.pruned = 0, 0
	s.putLocked(b)
}

// walk is the one block loop under every query. The blocks of b's read view
// whose footer, held by the store, proves p cannot match are pruned
// unopened (a nil p prunes none). The rest are prepared on n worker readers
// taken from the store, n the least of GOMAXPROCS, those blocks and
// maxWorkers: each reader opens a block and runs prep on it. The caller
// takes the prepared readers in block order and calls use on its own
// goroutine for every one prep accepted, so what use does — fold the
// rollup, call Scan's callback, write Export's lines — happens one block at
// a time, in admission order, exactly as a single reader would do it. With
// one reader there is nothing to overlap, so the caller prepares each block
// itself; with more, each decodes on a goroutine of its own (see fanOut)
// while the caller consumes the blocks before. walk returns only after every
// worker has stopped, and puts the readers back in the store.
func (s *Store) walk(b *Block, p *plan, prep, use func(*Block) (bool, error)) error {
	live := b.blocks[:0] // b.blocks is the query's own copy of the view
	for _, m := range b.blocks {
		if vf := m.ft.Load(); p == nil || vf == nil || !p.prunes(&vf.footer) {
			live = append(live, m)
		}
	}
	b.pruned += len(b.blocks) - len(live)
	n := min(runtime.GOMAXPROCS(0), len(live), maxWorkers)
	if n == 0 {
		return nil
	}
	s.mu.Lock()
	ws := b.workers[:0]
	for range n {
		ws = append(ws, s.takeLocked())
	}
	s.mu.Unlock()
	b.workers = ws
	defer func() {
		s.mu.Lock()
		for i := n - 1; i >= 0; i-- { // so the next query takes them in this order
			s.putLocked(ws[i])
		}
		s.mu.Unlock()
		clear(ws) // the store may hand them to another query now
	}()
	if n > 1 {
		return b.fanOut(live, prep, use)
	}
	for _, m := range live {
		ws[0].prepare(m, prep)
		b.read++
		if more, err := ws[0].consume(use); !more || err != nil {
			return err
		}
	}
	return nil
}

// fanOut is walk over b.workers, one goroutine each: worker i prepares
// blocks i, i+n, i+2n, … of live, handing its reader to the caller after
// each and waiting until use is done with it before opening the next. use
// returning false or an error, a prep error, or a panic in use stops the
// walk: the worker the caller holds is told to stop, every other one is told
// to once it has handed over the block it is preparing, and fanOut returns
// only after all of them have.
func (b *Block) fanOut(live []*blockMeta, prep, use func(*Block) (bool, error)) error {
	ws, n := b.workers, len(b.workers)
	b.live, b.prep = live, prep
	for i, w := range ws {
		if w.ready == nil {
			w.ready, w.resume = make(chan struct{}), make(chan bool)
		}
		b.wg.Add(1)
		go w.work(b, i)
	}
	next := 0       // the first block whose reader the caller has not taken
	var held *Block // the worker whose reader the caller holds, if any
	defer func() {
		if held != nil {
			held.resume <- false
		}
		// Every other worker with a block left is preparing the one at
		// next+k or waiting to hand it over.
		for k := next; k < min(next+n, len(live)) && ws[k%n] != held; k++ {
			<-ws[k%n].ready
			b.read++
			ws[k%n].resume <- false
		}
		b.wg.Wait()
		b.live, b.prep = nil, nil
	}()
	for next < len(live) {
		w := ws[next%n]
		<-w.ready
		held = w
		next++
		b.read++
		if more, err := w.consume(use); !more || err != nil {
			return err
		}
		w.resume <- true
		held = nil
	}
	return nil
}

// work is worker i of the fan-out whose caller's reader is c: it prepares
// blocks i, i+n, … of c.live on w, hands w to the caller after each and
// waits to be told to go on.
func (w *Block) work(c *Block, i int) {
	defer c.wg.Done()
	for n := len(c.workers); i < len(c.live); i += n {
		w.prepare(c.live[i], c.prep)
		w.ready <- struct{}{}
		if !<-w.resume {
			return
		}
	}
}

// prepare opens m's block on w and runs prep on it, leaving the verdict in
// w for consume.
func (w *Block) prepare(m *blockMeta, prep func(*Block) (bool, error)) {
	w.prepOK, w.prepErr = false, w.openFile(m)
	if w.prepErr == nil {
		w.prepOK, w.prepErr = prep(w)
	}
}

// consume runs use on the block w prepared, if prep accepted it, reporting
// whether the walk goes on.
func (w *Block) consume(use func(*Block) (bool, error)) (bool, error) {
	if w.prepErr != nil || !w.prepOK {
		return w.prepErr == nil, w.prepErr
	}
	return use(w)
}
