package crashfs

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Cut is one crash point: K cuts into the journal, replayed in order or
// reordered.
type Cut struct {
	K         int64
	Reordered bool
}

func (c Cut) String() string { return fmt.Sprintf("k=%d reordered=%v", c.K, c.Reordered) }

// state is the files a crash at c leaves over base. In order, the ops
// before c.K apply and the one containing it tears. Reordered, the OS
// persisted nothing since the last sync before the torn op but that
// op's prefix, so a committed statement's data-file writes can vanish
// while the next statement's log append tears.
func state(base map[string][]byte, j Journal, c Cut) map[string][]byte {
	torn, at := len(j), int64(0)
	for i, op := range j {
		if at+op.cost() > c.K {
			torn = i
			break
		}
		at += op.cost()
	}
	applied := torn
	if c.Reordered {
		applied = 0
		for i, op := range j[:torn] {
			if op.kind == 's' {
				applied = i + 1
			}
		}
	}
	files := clone(base)
	for _, op := range j[:applied] {
		apply(files, op, op.cost())
	}
	if torn < len(j) {
		apply(files, j[torn], c.K-at)
	}
	return files
}

type digest = [sha256.Size]byte

// fileDigest digests a file's name and the part of it store.Open reads
// before it discards the rest: a log up to the end of its last whole
// commit record (storage.LogEnd, recovery's structural pass; all of a
// log it refuses), a data file of at least one page down to its last
// whole page.
func fileDigest(name string, b []byte) digest {
	n := len(b)
	if !strings.HasSuffix(name, ".wal") {
		if n >= storage.PageSize {
			n -= n % storage.PageSize
		}
	} else if end, err := storage.LogEnd(b); err == nil {
		n = int(end)
	}
	return sha256.Sum256(append([]byte(name+"\x00"), b[:n]...))
}

// imageDigest digests a crash image from its files' digests: images
// with one digest differ only in bytes store.Open discards unread.
// Whether each file exists is part of the image.
func imageDigest(files map[string]digest) digest {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, n := range names {
		d := files[n]
		h.Write(d[:])
	}
	return digest(h.Sum(nil))
}

func canonical(files map[string][]byte) digest {
	ds := map[string]digest{}
	for n, b := range files {
		ds[n] = fileDigest(n, b)
	}
	return imageDigest(ds)
}

// classes calls emit, in cut order, for runs [from, to] of one mode's
// cuts whose images share a digest, building an image once per run.
func classes(base map[string][]byte, j Journal, reordered bool, emit func(from, to int64, d digest)) {
	// the ops applied so far, and the digests of files none has changed since
	files, ds := clone(base), map[string]digest{}
	image := func(name string, d digest) digest {
		all := map[string]digest{}
		for n, b := range files {
			if _, ok := ds[n]; !ok {
				ds[n] = fileDigest(n, b)
			}
			all[n] = ds[n]
		}
		if name != "" {
			all[name] = d
		}
		return imageDigest(all)
	}
	applyOp := func(op entry) {
		apply(files, op, op.cost())
		delete(ds, op.name)
	}
	synced, at := 0, int64(0)
	for i, op := range j {
		switch {
		case op.kind == 's' && reordered:
			for _, o := range j[synced : i+1] {
				applyOp(o)
			}
			synced = i + 1
		case op.kind == 't':
			emit(at, at, image("", digest{}))
		case op.kind == 'w' && len(op.data) > 0:
			for _, r := range writeRuns(files[op.name], op) {
				emit(at+r.from, at+r.to, image(op.name, r.d))
			}
		}
		at += op.cost()
		if !reordered {
			applyOp(op)
		}
	}
	emit(at, at, image("", digest{}))
}

// run is the cuts [from, to] inside one write that leave its file with
// digest d.
type run struct {
	from, to int64
	d        digest
}

// writeRuns splits the cuts inside write op over the file's old bytes
// into runs of one file digest. A data file's image changes only where
// the new byte differs from the one it overwrites, and past the end
// only where the file reaches a whole page (or is under one page); any
// other cut adds to the ragged tail Open cuts off. A log's recovered
// end moves only at commit-record ends, and never back, as the cut
// advances: so its digest agrees at two cuts iff it does at every cut
// between, and bisection finds each change. That holds also where an
// append overwrites a retired generation after a checkpoint, because
// recovery stops at the first commit record at or below the header's
// clock: the retired bytes behind a cut never extend the log.
func writeRuns(old []byte, op entry) []run {
	at := func(j int64) digest {
		files := map[string][]byte{op.name: append([]byte(nil), old...)}
		apply(files, op, j)
		return fileDigest(op.name, files[op.name])
	}
	last := int64(len(op.data)) - 1
	runs := []run{{0, last, at(0)}}
	split := func(j int64, d digest) {
		if d != runs[len(runs)-1].d {
			runs[len(runs)-1].to = j - 1
			runs = append(runs, run{j, last, d})
		}
	}
	if !strings.HasSuffix(op.name, ".wal") {
		for j := int64(1); j <= last; j++ {
			pos := op.off + j - 1 // the byte cut j adds to cut j-1
			if pos < int64(len(old)) && op.data[j-1] != old[pos] ||
				pos >= int64(len(old)) && (pos < storage.PageSize || (pos+1)%storage.PageSize == 0) {
				split(j, at(j))
			}
		}
		return runs
	}
	var bisect func(lo, hi int64, dlo, dhi digest)
	bisect = func(lo, hi int64, dlo, dhi digest) {
		switch {
		case dlo == dhi:
		case hi == lo+1:
			split(hi, dhi)
		default:
			mid := lo + (hi-lo)/2
			dmid := at(mid)
			bisect(lo, mid, dlo, dmid)
			bisect(mid, hi, dmid, dhi)
		}
	}
	bisect(0, last, runs[0].d, at(last))
	return runs
}

// Stats counts one sweep's work.
type Stats struct {
	Ops    int   // journaled ops
	Cuts   int64 // crash points, both modes
	States int   // distinct crash images after Open's discards
	Cycles int   // reopen-and-check cycles run
}

func (s Stats) String() string {
	return fmt.Sprintf("%d ops, %d cuts, %d states, %d reopen-and-check cycles", s.Ops, s.Cuts, s.States, s.Cycles)
}

// Sweep crashes the journal at every cut in both modes and calls check
// on the files of each distinct crash state: cuts are one state when
// their images are equal after dropping what store.Open discards before
// it reads anything else (the log past its last whole commit record, a
// data file's ragged tail past its last whole page). check runs at the
// first and at the last cut reaching a state; the last carries the
// longest discarded tail, so an Open that stopped discarding fails
// there. check owns its files and runs on GOMAXPROCS goroutines.
//
// Every 64th cut is also materialised on its own, and Sweep fails
// unless it is its class's state. Sweep stops at the first failure.
func Sweep(base map[string][]byte, j Journal, check func(c Cut, files map[string][]byte) error) (Stats, error) {
	type class struct{ first, last Cut }
	seen, order := map[digest]*class{}, []digest{}
	var probes []func() error
	for _, reordered := range []bool{false, true} {
		classes(base, j, reordered, func(from, to int64, d digest) {
			first, last := Cut{from, reordered}, Cut{to, reordered}
			if cl := seen[d]; cl == nil {
				seen[d], order = &class{first, last}, append(order, d)
			} else {
				if from < cl.first.K {
					cl.first = first
				}
				if to > cl.last.K {
					cl.last = last
				}
			}
			for k := (from + 63) / 64 * 64; k <= to; k += 64 {
				c := Cut{k, reordered}
				probes = append(probes, func() error {
					if canonical(state(base, j, c)) != d {
						return fmt.Errorf("crashfs: %v: the image is not its class's state", c)
					}
					return nil
				})
			}
		})
	}
	var checks []func() error
	for _, d := range order {
		for _, c := range slices.Compact([]Cut{seen[d].first, seen[d].last}) {
			checks = append(checks, func() error { return check(c, state(base, j, c)) })
		}
	}
	stats := Stats{Ops: len(j), Cuts: 2 * (j.End() + 1), States: len(seen), Cycles: len(checks)}
	return stats, fanOut(append(checks, probes...))
}

// fanOut runs tasks on GOMAXPROCS goroutines, stops handing them out
// once one fails, and returns the errors.
func fanOut(tasks []func() error) error {
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(tasks)) && errs[w] == nil; i = next.Add(1) - 1 {
				if errs[w] = tasks[i](); errs[w] != nil {
					next.Store(int64(len(tasks)))
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
