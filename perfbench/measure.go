package main

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tableFiles are the dataset's gzip CSV files in the canonical table order
// dataset.HashSink folds them in.
var tableFiles = []string{
	"throughput_samples.csv", "rtt_samples.csv", "handovers.csv",
	"tests.csv", "app_runs.csv", "passive_samples.csv",
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current RSS, so peakRSSMB covers only what runs after it. Kernels that
// refuse the reset leave the mark at the process peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MB, falling
// back to getrusage's lifetime peak where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample reads the Go runtime's cumulative allocation and GC CPU
// counters; runtime.alloc_mb and runtime.gc_cpu_s are deltas of two samples.
type runtimeSample struct{ allocBytes, gcCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	return out
}

// section measures one timed section: wall and CPU seconds, peak RSS, and
// the runtime counters' deltas.
type section struct {
	start time.Time
	cpu0  float64
	rt0   runtimeSample
}

type sectionResult struct {
	WallS, CPUS, PeakMB, AllocMB, GCCPUS float64
}

// startSection returns garbage from earlier work to the OS and restarts the
// RSS high-water mark, so the section's peak is its own.
func startSection() section {
	debug.FreeOSMemory()
	resetPeakRSS()
	return section{start: time.Now(), cpu0: cpuSeconds(), rt0: readRuntime()}
}

func (s section) stop() sectionResult {
	wall := time.Since(s.start).Seconds()
	cpu := cpuSeconds() - s.cpu0
	rt := readRuntime()
	return sectionResult{
		WallS:   wall,
		CPUS:    cpu,
		PeakMB:  peakRSSMB(),
		AllocMB: (rt.allocBytes - s.rt0.allocBytes) / 1e6,
		GCCPUS:  rt.gcCPU - s.rt0.gcCPU,
	}
}

// median of xs (xs is not modified); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// gzDigest recomputes dataset.HashSink's digest from a directory of gzip
// CSVs: each table's decompressed bytes are hashed and the per-table
// digests combined with their file names, in table order. It also returns
// the decompressed and compressed byte totals. A dataset written by a CSV
// writer and fingerprinted by a HashSink from the same record stream must
// yield the HashSink's digest here.
func gzDigest(dir string) (digest string, rawBytes, gzBytes int64, err error) {
	all := sha256.New()
	for _, name := range tableFiles {
		f, err := os.Open(filepath.Join(dir, name+".gz"))
		if err != nil {
			return "", 0, 0, err
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return "", 0, 0, err
		}
		gzBytes += info.Size()
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return "", 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		h := sha256.New()
		n, err := io.Copy(h, zr)
		f.Close()
		if err != nil {
			return "", 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		rawBytes += n
		io.WriteString(all, name)
		all.Write([]byte{0})
		all.Write(h.Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil)), rawBytes, gzBytes, nil
}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
