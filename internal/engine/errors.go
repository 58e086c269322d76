package engine

import (
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/store"
)

// The public error taxonomy. Every error the engine returns wraps one
// of these sentinels (or a storage sentinel re-exported below), so
// callers branch with errors.Is instead of matching message strings —
// see docs/api.md for the full table.
var (
	// ErrNotFound wraps lookups of relations that do not exist (or were
	// dropped).
	ErrNotFound = errors.New("engine: relation not found")
	// ErrExists wraps creations of relations that already exist.
	ErrExists = errors.New("engine: relation already exists")
	// ErrTypeMismatch wraps tuples whose degree or attribute kinds do
	// not fit the relation's schema.
	ErrTypeMismatch = errors.New("engine: tuple does not match schema")
	// ErrTxDone is returned by every method of a Tx that has already
	// been committed or rolled back (including by Database.Close).
	ErrTxDone = errors.New("engine: transaction already committed or rolled back")
	// ErrTxConflict is returned by a statement whose latch acquisition
	// was refused to avoid a deadlock (wait-die: a younger transaction
	// that already holds latches never waits for an older one). The
	// transaction itself is still open and consistent — the statement
	// did not apply; roll back and retry.
	ErrTxConflict = errors.New("engine: transaction conflict (roll back and retry)")
	// ErrReadOnly wraps every mutation attempted on a database opened
	// with WithReadOnly.
	ErrReadOnly = errors.New("engine: database is read-only")
	// ErrClosed wraps every operation on a closed database.
	ErrClosed = errors.New("engine: database is closed")
)

// Storage sentinels surfaced through the engine, re-exported so facade
// callers need one import for the whole taxonomy.
var (
	// ErrCorrupt wraps every failure caused by a malformed database
	// file or log, whichever layer found it (storage.ErrCorrupt).
	ErrCorrupt = store.ErrCorrupt
	// ErrMispaired wraps opens refused because the data file and WAL
	// sidecar belong to different databases.
	ErrMispaired = store.ErrMispaired
	// ErrFailed wraps every operation after a data-file write-through
	// failed past the log fsync, until a reopen (see storage.ErrFailed).
	ErrFailed = storage.ErrFailed
)

func errNotFound(name string) error {
	return fmt.Errorf("engine: unknown relation %q: %w", name, ErrNotFound)
}

func errExists(name string) error {
	return fmt.Errorf("engine: relation %q already exists: %w", name, ErrExists)
}
