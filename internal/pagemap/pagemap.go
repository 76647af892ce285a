// Package pagemap maintains the mapping from logical page identifiers to
// physical device slots.
//
// The paper relies on pages being movable: after single-page recovery "the
// page can be moved to a new location. The old, failed location can be
// deallocated ... or registered in an appropriate data structure to prevent
// future use" (§5.2.3). Pages are written in place: a logical page keeps its
// physical slot across writes, and moves only when its slot fails (Unbind)
// or its device is replaced (ForgetSlots). §5.2.1's pre-move image — the
// page backup a log-structured store, which writes every page to a new
// location, gets by deferring space reclamation — is the backup source such
// a store would add back.
//
// The translation table is lock-striped by page ID so the buffer pool's
// fetch path (Known/Lookup) does not contend with concurrent write-target
// allocation for unrelated pages. Slot allocation state (slot high-water
// mark, next logical ID) lives behind a separate allocMu. Lock order:
// stripe mutexes (ascending index, when more than one is needed) before
// allocMu; allocMu is never held while acquiring a stripe.
package pagemap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/page"
	"repro/internal/storage"
)

// Errors returned by the map.
var (
	ErrUnknownPage = errors.New("pagemap: unknown logical page")
	ErrNoFreeSlots = errors.New("pagemap: device full")
	ErrBadSnapshot = errors.New("pagemap: corrupt snapshot")
)

// noSlot marks a logical page that exists but has no physical location yet
// (freshly allocated, never written).
const noSlot = ^storage.PhysID(0)

// stripeCount is the number of lock stripes; a power of two so sequential
// page IDs spread across all stripes.
const stripeCount = 16

type stripe struct {
	mu sync.RWMutex
	m  map[page.ID]storage.PhysID
}

// Map is the logical→physical translation table. Safe for concurrent use.
type Map struct {
	slotCount int
	stripes   [stripeCount]stripe
	known     atomic.Int64 // logical pages in the stripes, kept by add

	allocMu  sync.Mutex
	nextPhys storage.PhysID
	nextID   page.ID
}

// New creates a map for a device with slotCount physical slots.
func New(slotCount int) *Map {
	m := &Map{
		slotCount: slotCount,
		nextID:    1, // page.InvalidID == 0 stays unused
	}
	for i := range m.stripes {
		m.stripes[i].m = make(map[page.ID]storage.PhysID)
	}
	return m
}

func (m *Map) stripeFor(id page.ID) *stripe {
	return &m.stripes[uint64(id)&(stripeCount-1)]
}

// add binds id to phys in st, whose lock the caller holds, counting the
// page if it is new.
func (m *Map) add(st *stripe, id page.ID, phys storage.PhysID) {
	if _, ok := st.m[id]; !ok {
		m.known.Add(1)
	}
	st.m[id] = phys
}

// AllocateLogical mints a fresh logical page ID. No physical slot is bound
// until the first write.
func (m *Map) AllocateLogical() page.ID {
	m.allocMu.Lock()
	id := m.nextID
	m.nextID++
	m.allocMu.Unlock()
	st := m.stripeFor(id)
	st.mu.Lock()
	m.add(st, id, noSlot)
	st.mu.Unlock()
	return id
}

// raiseWatermarks advances nextID past id and nextPhys past phys, after
// the insert. (Rebuild-time adopters are not concurrent with
// AllocateLogical, so the insert→raise window is safe.)
func (m *Map) raiseWatermarks(id page.ID, phys storage.PhysID) {
	m.allocMu.Lock()
	if id >= m.nextID {
		m.nextID = id + 1
	}
	if phys != noSlot && phys >= m.nextPhys {
		m.nextPhys = phys + 1
	}
	m.allocMu.Unlock()
}

// allocSlot hands out the next never-used physical slot. May be called
// with a stripe mutex held (stripe→alloc is the sanctioned lock order).
func (m *Map) allocSlot() (storage.PhysID, error) {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	if int(m.nextPhys) >= m.slotCount {
		return 0, ErrNoFreeSlots
	}
	s := m.nextPhys
	m.nextPhys++
	return s, nil
}

// Lookup returns the physical slot currently holding logical page id. The
// second result is false if the page is unknown or has never been written.
func (m *Map) Lookup(id page.ID) (storage.PhysID, bool) {
	st := m.stripeFor(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	phys, ok := st.m[id]
	if !ok || phys == noSlot {
		return 0, false
	}
	return phys, true
}

// Known reports whether the logical page has been allocated.
func (m *Map) Known(id page.ID) bool {
	st := m.stripeFor(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.m[id]
	return ok
}

// WriteTarget returns the physical slot a write of logical page id goes to:
// the slot the page is bound to, or, for a page without one, a freshly
// allocated slot it is bound to from now on.
func (m *Map) WriteTarget(id page.ID) (storage.PhysID, error) {
	st := m.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	cur, ok := st.m[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownPage, id)
	}
	if cur != noSlot {
		return cur, nil
	}
	s, err := m.allocSlot()
	if err != nil {
		return 0, err
	}
	st.m[id] = s
	return s, nil
}

// Unbind takes logical page id off its physical slot: the slot does not
// hold the page (it failed, §5.2.3 — the caller retires it). The page stays
// known and unbound, like one never written, and its next WriteTarget
// allocates; the slot is not handed back to the allocator. A page is thus
// always either bound to a slot that holds a version of it, or unbound.
func (m *Map) Unbind(id page.ID) {
	st := m.stripeFor(id)
	st.mu.Lock()
	if _, ok := st.m[id]; ok {
		st.m[id] = noSlot
	}
	st.mu.Unlock()
}

// EnsureMapping binds logical page id to phys, creating the logical page
// if it was never seen. Restart analysis uses it to replay completed-write
// records into a map reconstructed from a checkpoint snapshot.
func (m *Map) EnsureMapping(id page.ID, phys storage.PhysID) error {
	st := m.stripeFor(id)
	st.mu.Lock()
	m.add(st, id, phys)
	st.mu.Unlock()
	m.raiseWatermarks(id, phys)
	return nil
}

// AdoptFresh registers a logical page with no physical slot yet (a page
// formatted after the last checkpoint and never written before a crash).
func (m *Map) AdoptFresh(id page.ID) {
	st := m.stripeFor(id)
	st.mu.Lock()
	_, known := st.m[id]
	if !known {
		m.add(st, id, noSlot)
	}
	st.mu.Unlock()
	if !known {
		m.raiseWatermarks(id, noSlot)
	}
}

// ForgetSlots takes every page off its slot and hands all slots back to
// the allocator: the device was replaced by an empty one, so no image
// exists anywhere on it. Pages stay known; WriteTarget binds each anew.
func (m *Map) ForgetSlots() {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for id := range st.m {
			st.m[id] = noSlot
		}
		st.mu.Unlock()
	}
	m.allocMu.Lock()
	m.nextPhys = 0
	m.allocMu.Unlock()
}

// Pages returns all known logical pages in ascending order.
func (m *Map) Pages() []page.ID {
	var out []page.ID
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.RLock()
		for id := range st.m {
			out = append(out, id)
		}
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of known logical pages.
func (m *Map) Len() int { return int(m.known.Load()) }

// MappedSlots returns the set of physical slots currently bound to a
// logical page; used by the scrubber to skip free slots.
func (m *Map) MappedSlots() map[storage.PhysID]page.ID {
	out := make(map[storage.PhysID]page.ID)
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.RLock()
		for id, s := range st.m {
			if s != noSlot {
				out[s] = id
			}
		}
		st.mu.RUnlock()
	}
	return out
}

// lockAll acquires every stripe (ascending) plus allocMu for a consistent
// full-table view; unlockAll releases in reverse.
func (m *Map) lockAll() {
	for i := range m.stripes {
		m.stripes[i].mu.RLock()
	}
	m.allocMu.Lock()
}

func (m *Map) unlockAll() {
	m.allocMu.Unlock()
	for i := len(m.stripes) - 1; i >= 0; i-- {
		m.stripes[i].mu.RUnlock()
	}
}

// Snapshot serializes the complete map state for inclusion in a checkpoint.
func (m *Map) Snapshot() []byte {
	m.lockAll()
	defer m.unlockAll()
	mapping := make(map[page.ID]storage.PhysID)
	for i := range m.stripes {
		for id, s := range m.stripes[i].m {
			mapping[id] = s
		}
	}
	ids := make([]page.ID, 0, len(mapping))
	for id := range mapping {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 0, 8*3+len(ids)*16)
	var tmp [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(m.nextID))
	put(uint64(m.nextPhys))
	put(uint64(len(ids)))
	for _, id := range ids {
		put(uint64(id))
		put(uint64(mapping[id]))
	}
	return buf
}

// Restore rebuilds a map from a Snapshot for a device with slotCount slots.
func Restore(snap []byte, slotCount int) (*Map, error) {
	if len(snap) < 24 || len(snap)%8 != 0 {
		return nil, ErrBadSnapshot
	}
	pos := 0
	get := func() uint64 {
		v := binary.LittleEndian.Uint64(snap[pos:])
		pos += 8
		return v
	}
	m := New(slotCount)
	m.nextID = page.ID(get())
	m.nextPhys = storage.PhysID(get())
	n := int(get())
	if pos+n*16 != len(snap) {
		return nil, ErrBadSnapshot
	}
	for i := 0; i < n; i++ {
		id := page.ID(get())
		m.add(m.stripeFor(id), id, storage.PhysID(get()))
	}
	return m, nil
}
