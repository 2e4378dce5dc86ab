package dataset

import (
	"compress/gzip"
	"os"
	"path/filepath"
)

// CSVWriter is the disk-streaming Sink: it writes each record straight into
// the per-table gzip CSV files as it is emitted, so exporting a campaign
// needs no in-memory Dataset at all. It writes one <table>.csv.gz per record
// type — SaveCompressed is this writer fed from a materialized Dataset — and
// LoadCompressed reads them back. Rows are encoded through the byte codecs
// of rowbytes.go, which produce bit-identical CSV to the encoding/csv path
// Save uses.
//
// Emit methods latch the first write error; Flush finalizes all six files
// and returns it. A CSVWriter must be flushed exactly once — emits after
// Flush are dropped.
type CSVWriter struct {
	files [numTables]*os.File
	zw    [numTables]*gzip.Writer
	row   []byte // reusable row encoding buffer
	enc   rowEnc
	err   error
	done  bool
}

// NewCSVWriter creates dir if needed and opens the six table streams,
// writing each header immediately.
func NewCSVWriter(dir string) (*CSVWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &CSVWriter{}
	for i, name := range tableNames {
		f, err := os.Create(filepath.Join(dir, name+".gz"))
		if err != nil {
			w.closeAll()
			return nil, err
		}
		w.files[i] = f
		w.zw[i] = gzip.NewWriter(f)
		w.row = csvAppendRow(w.row[:0], tableHeaders[i])
		if _, err := w.zw[i].Write(w.row); err != nil {
			w.closeAll()
			return nil, err
		}
	}
	return w, nil
}

// closeAll releases every open stream, keeping the first error. Used for
// constructor failure and by Flush.
func (w *CSVWriter) closeAll() {
	latch := func(err error) {
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	for i := range w.files {
		if w.zw[i] != nil {
			latch(w.zw[i].Close())
		}
		if w.files[i] != nil {
			latch(w.files[i].Close())
		}
	}
}

func (w *CSVWriter) write(tab int) {
	if w.err != nil || w.done {
		return
	}
	if _, err := w.zw[tab].Write(w.row); err != nil {
		w.err = err
	}
}

func (w *CSVWriter) EmitThr(s ThroughputSample) {
	w.row = w.enc.csvAppendThr(w.row[:0], s)
	w.write(tabThr)
}
func (w *CSVWriter) EmitRTT(s RTTSample) {
	w.row = w.enc.csvAppendRTT(w.row[:0], s)
	w.write(tabRTT)
}
func (w *CSVWriter) EmitHandover(h HandoverRecord) {
	w.row = w.enc.csvAppendHO(w.row[:0], h)
	w.write(tabHO)
}
func (w *CSVWriter) EmitTest(t TestSummary) {
	w.row = w.enc.csvAppendTest(w.row[:0], t)
	w.write(tabTests)
}
func (w *CSVWriter) EmitApp(a AppRun) {
	w.row = w.enc.csvAppendApp(w.row[:0], a)
	w.write(tabApps)
}
func (w *CSVWriter) EmitPassive(p PassiveSample) {
	w.row = w.enc.csvAppendPassive(w.row[:0], p)
	w.write(tabPassive)
}

// Flush closes the gzip streams and files, and returns the first error
// encountered anywhere in the writer's lifetime. Safe to call more than
// once; only the first call does work.
func (w *CSVWriter) Flush() error {
	if w.done {
		return w.err
	}
	w.done = true
	w.closeAll()
	return w.err
}
