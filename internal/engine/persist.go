package engine

import (
	"fmt"
	"os"

	"repro/internal/store"
)

// Save persists a point-in-time snapshot of the database into a single
// paged file at path (the store format: catalog page + per-relation
// heap chains — see docs/storage.md). An existing file is replaced
// atomically via a temporary file and rename. A database saving to its
// own file just flushes the buffer pool: the paged file is already the
// database.
func (db *Database) Save(path string) error {
	if db.isOwnFile(path) {
		return db.Flush()
	}
	tmp := path + ".tmp"
	if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return err
	}
	// also clear any WAL sidecar a crashed previous Save left behind —
	// store.Open would otherwise replay its stale batches into the
	// fresh snapshot
	if err := os.Remove(tmp + ".wal"); err != nil && !os.IsNotExist(err) {
		return err
	}
	st, err := store.Open(tmp, store.Options{})
	if err != nil {
		return err
	}
	if err := db.copyTo(st); err != nil {
		st.Close()
		os.Remove(tmp)
		return err
	}
	if err := st.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// If path holds a crashed database, its WAL sidecar must not
	// survive the replacement: store.Open would replay the old
	// database's committed page images into the fresh snapshot.
	// Removing it first means a crash inside this window degrades the
	// doomed old file to fail-stop (it was being replaced anyway)
	// instead of silently corrupting the new one.
	if err := os.Remove(path + ".wal"); err != nil && !os.IsNotExist(err) {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// copyTo creates every relation of db in st and fills it from the
// relation's canonical form, all as one committed transaction.
// Materializing that form scans the heap, refusing duplicate records
// and a stored form that is not V_P: the store's fast open does not
// scan, so this is where such a heap (external damage) fails stop on
// Save and Load.
func (db *Database) copyTo(st *store.Store) error {
	txn := st.Begin()
	for _, name := range db.Names() {
		r, err := db.Rel(name)
		if err != nil {
			return err
		}
		def := r.Def()
		rs, err := st.CreateRelation(txn, store.RelationDef{
			Name: def.Name, Schema: def.Schema, Order: def.Order,
			FDs: def.FDs, MVDs: def.MVDs, Shards: def.Shards,
		})
		if err != nil {
			return err
		}
		// materialize explicitly: Relation() hides errors behind nil
		rel, _, err := r.canonical()
		if err != nil {
			return err
		}
		// Fill re-partitions the global canonical form across the copy's
		// shards (a global tuple's fixed atoms can span shards)
		if err := rs.Fill(txn, rel); err != nil {
			return err
		}
	}
	return st.Commit(txn)
}

// isOwnFile reports whether path names the live paged file, comparing
// inodes (not strings) so relative paths, aliases and symlinks cannot
// trick Save into renaming a snapshot over the file the open pager
// still holds — which would silently orphan all further writes. An
// in-memory database has no file, so no path is its own.
func (db *Database) isOwnFile(path string) bool {
	if db.path == "" {
		return false
	}
	if path == db.path {
		return true
	}
	fi, err := os.Stat(path)
	if err != nil {
		return false // target doesn't exist, cannot be the live file
	}
	own, err := os.Stat(db.path)
	if err != nil {
		return false
	}
	return os.SameFile(fi, own)
}

// Load copies a database saved by Save into a new in-memory database
// (New): the file is opened read-only, each relation is copied as Save
// copies it, and the file is closed. Use Open instead to keep the file
// live with write-through updates.
//
// Loading a cleanly closed file never writes. Loading a crashed file —
// one whose WAL sidecar still holds committed batches — first completes
// crash recovery (store.Open replays the log into the data file and
// keeps it), which is the only circumstance under which Load writes.
func Load(path string) (*Database, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("engine: load %s: %w", path, err)
	}
	// A zero-length (or missing) file would be initialized — written! —
	// by store.Open's create-if-empty path; a read-only load must reject
	// it instead.
	if fi.Size() == 0 {
		return nil, fmt.Errorf("engine: load %s: not a database file (empty)", path)
	}
	src, err := Open(path, WithReadOnly())
	if err != nil {
		return nil, err
	}
	// read-only: Close discards, never flushes
	defer src.Close()
	db := New()
	if err := src.copyTo(db.st); err != nil {
		return nil, err
	}
	db.attachStored()
	return db, nil
}
