package main

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// fileCounts is the device-boundary traffic of one file.
type fileCounts struct {
	Reads, ReadBytes   int64
	Writes, WriteBytes int64
	Syncs, Truncates   int64
	BusyNs             int64 // time spent inside the calls
}

func (c fileCounts) minus(b fileCounts) fileCounts {
	return fileCounts{c.Reads - b.Reads, c.ReadBytes - b.ReadBytes, c.Writes - b.Writes,
		c.WriteBytes - b.WriteBytes, c.Syncs - b.Syncs, c.Truncates - b.Truncates, c.BusyNs - b.BusyNs}
}

type fileCounters struct {
	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	syncs, truncates   atomic.Int64
	busyNs             atomic.Int64
}

func (c *fileCounters) snapshot() fileCounts {
	return fileCounts{
		Reads: c.reads.Load(), ReadBytes: c.readBytes.Load(),
		Writes: c.writes.Load(), WriteBytes: c.writeBytes.Load(),
		Syncs: c.syncs.Load(), Truncates: c.truncates.Load(), BusyNs: c.busyNs.Load(),
	}
}

// deviceFS opens operating-system files behind a wrapper that counts,
// and while a tracer is attached spans, every call the storage layer
// makes across the storage.File boundary, kept apart for the data file
// and its .wal sidecar. Only traced and replay runs use it; timed runs
// open OS files directly. With noSync set, Sync returns at once: layer
// replays use that to price a layer's CPU without the device.
type deviceFS struct {
	tr        atomic.Pointer[tracer]
	noSync    bool
	data, wal fileCounters
}

func (fs *deviceFS) open(name string, create bool) (storage.File, error) {
	f, err := storage.OpenOSFile(name, create)
	if err != nil {
		return nil, err
	}
	df := &deviceFile{File: f, fs: fs, c: &fs.data, kind: "device.data."}
	if strings.HasSuffix(name, ".wal") {
		df.c, df.kind = &fs.wal, "device.wal."
	}
	return df, nil
}

func (fs *deviceFS) counts() (data, wal fileCounts) { return fs.data.snapshot(), fs.wal.snapshot() }

type deviceFile struct {
	storage.File
	fs   *deviceFS
	c    *fileCounters
	kind string
}

func (f *deviceFile) span(op string, call func()) {
	tr := f.fs.tr.Load()
	start := tr.now()
	t0 := time.Now()
	call()
	f.c.busyNs.Add(int64(time.Since(t0)))
	tr.record(f.kind+op, start, tr.now(), -1)
}

func (f *deviceFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.span("read", func() { n, err = f.File.ReadAt(p, off) })
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *deviceFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.span("write", func() { n, err = f.File.WriteAt(p, off) })
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *deviceFile) Sync() (err error) {
	f.c.syncs.Add(1)
	if f.fs.noSync {
		return nil
	}
	f.span("sync", func() { err = f.File.Sync() })
	return err
}

func (f *deviceFile) Truncate(size int64) (err error) {
	f.c.truncates.Add(1)
	f.span("truncate", func() { err = f.File.Truncate(size) })
	return err
}
