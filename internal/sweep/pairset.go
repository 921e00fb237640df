package sweep

// pairSet is a linear-probing hash set of non-negative int64 pair keys,
// sized in powers of two and deleted from by backward shifting instead of
// tombstones. The sweep's event dedup runs long insert/remove cycles at a
// roughly constant population; the runtime map eventually rehashes to
// reclaim its tombstones, which allocates at steady state and would break
// the sweep's zero-alloc contract. This table never does: the slot array
// is retained across reset calls and only grows (doubling at 50% load),
// so a warm set runs a whole sweep without touching the allocator.
type pairSet struct {
	slots []int64 // pairEmpty marks free slots; keys are >= 0
	n     int
}

const pairEmpty int64 = -1

// reset wipes the set for a new sweep, keeping the table storage.
func (s *pairSet) reset() {
	if len(s.slots) == 0 {
		s.slots = make([]int64, 64)
	}
	for i := range s.slots {
		s.slots[i] = pairEmpty
	}
	s.n = 0
}

// reserve makes room for up to keys live keys without growing. It
// replaces a smaller table, dropping its contents, so it is called only
// right before reset. A sweep holds at most one key per adjacent pair, so
// sizing for that once saves a fresh arena the doublings.
func (s *pairSet) reserve(keys int) {
	size := 64
	for size < 2*(keys+1) {
		size *= 2
	}
	if len(s.slots) < size {
		s.slots = make([]int64, size)
	}
}

// pairHash finalizes the key into a table index distribution
// (the 64-bit finalizer from MurmurHash3). Deterministic across runs,
// unlike the runtime map's seeded hash, which also keeps sweep memory
// layouts reproducible under debugging.
func pairHash(k int64) uint64 {
	h := uint64(k)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// insert adds k and reports whether it was absent.
func (s *pairSet) insert(k int64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	i := pairHash(k) & mask
	for {
		switch s.slots[i] {
		case k:
			return false
		case pairEmpty:
			s.slots[i] = k
			s.n++
			return true
		}
		i = (i + 1) & mask
	}
}

// remove deletes k if present, compacting the probe chain behind it so
// lookups stay correct without tombstones.
func (s *pairSet) remove(k int64) {
	mask := uint64(len(s.slots) - 1)
	i := pairHash(k) & mask
	for s.slots[i] != k {
		if s.slots[i] == pairEmpty {
			return
		}
		i = (i + 1) & mask
	}
	s.n--
	// Backward-shift deletion: walk the cluster after the hole; any key
	// whose home position is cyclically at or before the hole moves into
	// it, re-opening the hole at its old slot.
	j := i
	for {
		j = (j + 1) & mask
		v := s.slots[j]
		if v == pairEmpty {
			s.slots[i] = pairEmpty
			return
		}
		h := pairHash(v) & mask
		// v may fill the hole iff i lies cyclically within [h, j).
		if inCyclicRange(h, i, j) {
			s.slots[i] = v
			i = j
		}
	}
}

// inCyclicRange reports i ∈ [h, j) on the circular table.
func inCyclicRange(h, i, j uint64) bool {
	if h <= j {
		return h <= i && i < j
	}
	return i >= h || i < j
}

// grow doubles the table and reinserts the live keys.
func (s *pairSet) grow() {
	old := s.slots
	size := 2 * len(old)
	if size == 0 {
		size = 64 // insert on a never-reset zero value
	}
	s.slots = make([]int64, size)
	for i := range s.slots {
		s.slots[i] = pairEmpty
	}
	mask := uint64(len(s.slots) - 1)
	for _, k := range old {
		if k == pairEmpty {
			continue
		}
		i := pairHash(k) & mask
		for s.slots[i] != pairEmpty {
			i = (i + 1) & mask
		}
		s.slots[i] = k
	}
}
