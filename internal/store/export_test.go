package store

import (
	"context"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// freeCount returns the number of pages on the free list.
func (s *Store) freeCount() int {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return len(s.free)
}

// ghostCount returns how many dropped relations are retained for
// pinned snapshots.
func (s *Store) ghostCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ghosts)
}

// heapStats sums the heap occupancy of the relation's shards.
func (r *RelStore) heapStats() (storage.HeapStats, error) {
	var total storage.HeapStats
	for _, sh := range r.shards {
		sh.mu.Lock()
		st, err := sh.heap.Stats()
		sh.mu.Unlock()
		if err != nil {
			return storage.HeapStats{}, err
		}
		total.Pages += st.Pages
		total.LiveRecords += st.LiveRecords
		total.LiveBytes += st.LiveBytes
		total.FreeBytes += st.FreeBytes
	}
	return total, nil
}

// scan calls fn for every stored tuple in heap order, shard by shard;
// fn returning false stops the scan.
func (r *RelStore) scan(fn func(t tuple.Tuple) bool) error {
	return r.scanRaw(context.Background(), nil, func(_ storage.RID, t tuple.Tuple) bool { return fn(t) })
}

// HeapStats is heapStats for the external test package.
func HeapStats(r *RelStore) (storage.HeapStats, error) { return r.heapStats() }
