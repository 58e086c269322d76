package crashfs

import (
	"strings"
	"sync/atomic"

	"repro/internal/storage"
)

// Gate holds the log's fsync while Armed: every Sync of a ".wal"
// sidecar sends on Entered and then waits for a token on Release.
// Commit fsyncs run one at a time (the group-commit leader holds the
// commit lock), so at most one is parked. Commits only merge when a
// commit fsync is slow; holding it makes the merge counters follow from
// who was waiting, not from the machine's fsync latency.
type Gate struct {
	Armed            atomic.Bool
	Entered, Release chan struct{}
}

// NewGate returns a disarmed gate.
func NewGate() *Gate {
	return &Gate{Entered: make(chan struct{}), Release: make(chan struct{})}
}

// Open wraps open, which may be an FS's or the operating system's.
func (g *Gate) Open(open storage.OpenFileFunc) storage.OpenFileFunc {
	return func(name string, create bool) (storage.File, error) {
		f, err := open(name, create)
		if err != nil || !strings.HasSuffix(name, ".wal") {
			return f, err
		}
		return gatedFile{f, g}, nil
	}
}

type gatedFile struct {
	storage.File
	g *Gate
}

func (f gatedFile) Sync() error {
	if f.g.Armed.Load() {
		f.g.Entered <- struct{}{}
		<-f.g.Release
	}
	return f.File.Sync()
}

// Run runs every writer's units in lockstep rounds and holds the first
// commit fsync of each round until every writer has reached its commit:
// in the parked group, queued behind it, or a few instructions from
// queueing. unit(w, i) prepares writer w's i-th unit and returns the
// call that commits it; Run returns the first error of any commit.
func (g *Gate) Run(writers, units int, unit func(w, i int) func() error) error {
	ready, back := make(chan struct{}), make(chan error)
	g.Armed.Store(true)
	defer g.Armed.Store(false)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < units; i++ {
				commit := unit(w, i)
				ready <- struct{}{}
				back <- commit()
			}
		}(w)
	}
	var first error
	for i := 0; i < units; i++ {
		for w := 0; w < writers; w++ {
			<-ready
		}
		for acked := 0; acked < writers; {
			select {
			case <-g.Entered:
				g.Release <- struct{}{}
			case err := <-back:
				if first == nil {
					first = err
				}
				acked++
			}
		}
	}
	return first
}
