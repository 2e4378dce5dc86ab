package dataset

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// DefaultChunkRows is the chunk size ParallelCSVWriter uses when the caller
// passes chunkRows <= 0. 8192 rows is ~1 MB of throughput-table CSV —
// large enough that the per-member gzip overhead (~20 bytes + a reset
// dictionary) is noise, small enough that all workers stay busy on a
// single table.
const DefaultChunkRows = 8192

// ParallelCSVWriter is the multi-core counterpart of CSVWriter: the same
// six <table>.csv.gz files, the same headers and row codecs, but the gzip
// compression — which dominates the serial writer's cost — runs on a
// bounded worker pool. Rows are CSV-encoded in emit order into fixed-size
// chunks; each full chunk is compressed as an independent gzip member and
// the members are concatenated in order. Concatenated members are a valid
// gzip stream (RFC 1952 §2.2), so gzip.Reader — and therefore
// LoadCompressed — decodes the files transparently.
//
// The output is byte-deterministic for a fixed chunk size: each member's
// bytes depend only on its chunk's contents, so the worker count changes
// wall-clock time, never the file. (The bytes differ from CSVWriter's
// single-member stream; the decompressed CSV is identical.)
//
// Like every Sink, it is single-producer: Emit methods must come from one
// goroutine, with Flush called exactly once after the last emit.
type ParallelCSVWriter struct {
	files [numTables]*os.File
	tabs  [numTables]chunkTable
	row   []byte // reusable row encoding buffer
	enc   rowEnc

	chunkRows int
	jobs      chan compressJob
	workers   sync.WaitGroup
	writers   sync.WaitGroup

	mu   sync.Mutex
	err  error
	done bool
}

// chunkTable is one table's encoding state: byte-encoded rows accumulate in
// buf, and futures for submitted chunks queue in pending for the table's
// writer goroutine to commit in order.
type chunkTable struct {
	buf     *bytes.Buffer
	rows    int
	pending chan chan compressed
}

type compressJob struct {
	raw *bytes.Buffer // chunk plaintext; returned to rawPool by the worker
	out chan compressed
}

type compressed struct {
	buf *bytes.Buffer // gzip member; returned to gzBufPool by the writer
}

var (
	rawPool   = sync.Pool{New: func() any { return &bytes.Buffer{} }}
	gzBufPool = sync.Pool{New: func() any { return &bytes.Buffer{} }}
	gzwPool   = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}
)

// NewParallelCSVWriter creates dir if needed, opens the six table streams,
// and starts the compression pool. workers <= 0 means GOMAXPROCS;
// chunkRows <= 0 means DefaultChunkRows. Changing chunkRows changes the
// output bytes (but never the decompressed content); keep it fixed where
// byte-level reproducibility of the .gz files matters.
func NewParallelCSVWriter(dir string, workers, chunkRows int) (*ParallelCSVWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	w := &ParallelCSVWriter{chunkRows: chunkRows}
	for i, name := range tableNames {
		f, err := os.Create(filepath.Join(dir, name+".gz"))
		if err != nil {
			for j := 0; j < i; j++ {
				w.files[j].Close()
			}
			return nil, err
		}
		w.files[i] = f
	}
	// No goroutines exist before this point, so the error path above leaks
	// nothing. From here on construction cannot fail.
	w.jobs = make(chan compressJob)
	for i := range w.tabs {
		t := &w.tabs[i]
		t.buf = rawPool.Get().(*bytes.Buffer)
		t.buf.Reset()
		w.row = csvAppendRow(w.row[:0], tableHeaders[i])
		t.buf.Write(w.row) // bytes.Buffer writes never fail
		// 2×workers of slack keeps every worker busy while the writer
		// commits, and bounds in-flight chunks (memory) per table.
		t.pending = make(chan chan compressed, 2*workers)
		w.writers.Add(1)
		go w.commitLoop(w.files[i], t.pending)
	}
	w.workers.Add(workers)
	for n := 0; n < workers; n++ {
		go w.compressLoop()
	}
	return w, nil
}

// compressLoop turns chunk plaintext into independent gzip members.
func (w *ParallelCSVWriter) compressLoop() {
	defer w.workers.Done()
	for job := range w.jobs {
		out := gzBufPool.Get().(*bytes.Buffer)
		out.Reset()
		zw := gzwPool.Get().(*gzip.Writer)
		zw.Reset(out)
		_, werr := zw.Write(job.raw.Bytes())
		cerr := zw.Close()
		gzwPool.Put(zw)
		rawPool.Put(job.raw)
		if werr != nil || cerr != nil {
			// Writes to a bytes.Buffer cannot fail in practice; latch
			// defensively and emit an empty member so ordering survives.
			w.latch(werr)
			w.latch(cerr)
			out.Reset()
		}
		job.out <- compressed{buf: out}
	}
}

// commitLoop writes one table's compressed members to its file in
// submission order.
func (w *ParallelCSVWriter) commitLoop(f *os.File, pending chan chan compressed) {
	defer w.writers.Done()
	for fut := range pending {
		c := <-fut
		if _, err := f.Write(c.buf.Bytes()); err != nil {
			w.latch(err)
		}
		gzBufPool.Put(c.buf)
	}
}

func (w *ParallelCSVWriter) latch(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// submit ships the table's current chunk to the pool and starts a fresh
// buffer. Caller is the single emit goroutine.
func (w *ParallelCSVWriter) submit(t *chunkTable) {
	if t.buf.Len() == 0 {
		t.rows = 0
		return
	}
	fut := make(chan compressed, 1)
	t.pending <- fut // blocks when the table is 2×workers ahead
	w.jobs <- compressJob{raw: t.buf, out: fut}
	t.buf = rawPool.Get().(*bytes.Buffer)
	t.buf.Reset()
	t.rows = 0
}

func (w *ParallelCSVWriter) write(tab int) {
	if w.done {
		return
	}
	t := &w.tabs[tab]
	t.buf.Write(w.row)
	t.rows++
	if t.rows >= w.chunkRows {
		w.submit(t)
	}
}

func (w *ParallelCSVWriter) EmitThr(s ThroughputSample) {
	w.row = w.enc.csvAppendThr(w.row[:0], s)
	w.write(tabThr)
}
func (w *ParallelCSVWriter) EmitRTT(s RTTSample) {
	w.row = w.enc.csvAppendRTT(w.row[:0], s)
	w.write(tabRTT)
}
func (w *ParallelCSVWriter) EmitHandover(h HandoverRecord) {
	w.row = w.enc.csvAppendHO(w.row[:0], h)
	w.write(tabHO)
}
func (w *ParallelCSVWriter) EmitTest(t TestSummary) {
	w.row = w.enc.csvAppendTest(w.row[:0], t)
	w.write(tabTests)
}
func (w *ParallelCSVWriter) EmitApp(a AppRun) {
	w.row = w.enc.csvAppendApp(w.row[:0], a)
	w.write(tabApps)
}
func (w *ParallelCSVWriter) EmitPassive(p PassiveSample) {
	w.row = w.enc.csvAppendPassive(w.row[:0], p)
	w.write(tabPassive)
}

// Flush submits every partial chunk (the header-only chunk of an empty
// table included, so every file is a valid gzip stream), drains the pool,
// closes the files, and returns the first error from anywhere in the
// writer's lifetime. Only the first call does work.
func (w *ParallelCSVWriter) Flush() error {
	if w.done {
		return w.flushErr()
	}
	w.done = true
	for i := range w.tabs {
		w.submit(&w.tabs[i])
	}
	close(w.jobs)
	w.workers.Wait()
	for i := range w.tabs {
		close(w.tabs[i].pending)
	}
	w.writers.Wait()
	for i := range w.files {
		if err := w.files[i].Close(); err != nil {
			w.latch(err)
		}
	}
	return w.flushErr()
}

func (w *ParallelCSVWriter) flushErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
