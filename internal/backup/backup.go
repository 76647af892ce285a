// Package backup manages the sources of backup pages enumerated in paper
// §5.2.1 that this engine produces:
//
//   - full database backups ("the same type of archive copy as required
//     after a media failure"), held on direct-access media so single pages
//     can be fetched individually;
//   - explicit per-page backup copies, e.g. taken "after every 100 updates
//     of a data page";
//   - the format log record written when a page is allocated (TypeFormat),
//     which "may substitute for an explicit backup copy".
//
// The Resolver implements core.BackupSource over all three. Pages are
// written in place, so §5.2.1's pre-move image — what a log-structured
// store keeps by deferring space reclamation — is not among them.
package backup

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Errors returned by the backup subsystem.
var (
	ErrUnknownSet   = errors.New("backup: unknown backup set")
	ErrNotInSet     = errors.New("backup: page not in backup set")
	ErrBadSlot      = errors.New("backup: bad backup slot")
	ErrBadFormatRec = errors.New("backup: malformed format record payload")
	ErrWrongKind    = errors.New("backup: unsupported backup kind")
)

// Store keeps page backups on its own direct-access device ("for the
// purpose of single-page recovery, the backup should be on direct-access
// media, e.g., disk rather than tape", §5.2.2). Safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dev      *storage.Device
	nextSlot storage.PhysID
	free     []storage.PhysID
	sets     map[uint64]map[page.ID]storage.PhysID
	setLSN   map[uint64]page.LSN // log position the set was taken at
	// pageLSN records, per set, the LSN each captured image carried — the
	// basis for the incremental-backup skip decision ("has this page been
	// written since the previous backup captured it?").
	pageLSN map[uint64]map[page.ID]page.LSN
	// slotRef counts how many backup sets reference each set slot. An
	// incremental set shares the unchanged pages of its predecessor
	// (AddShared), so a slot is reusable only when the LAST set naming it
	// is dropped.
	slotRef map[storage.PhysID]int
	nextSet uint64
}

// NewStore creates a backup store on the given device.
func NewStore(dev *storage.Device) *Store {
	return &Store{
		dev:     dev,
		sets:    make(map[uint64]map[page.ID]storage.PhysID),
		setLSN:  make(map[uint64]page.LSN),
		pageLSN: make(map[uint64]map[page.ID]page.LSN),
		slotRef: make(map[storage.PhysID]int),
		nextSet: 1,
	}
}

// Device exposes the underlying device (fault injection in experiments:
// backups can fail too).
func (s *Store) Device() *storage.Device { return s.dev }

func (s *Store) allocLocked() (storage.PhysID, error) {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot, nil
	}
	if int(s.nextSlot) >= s.dev.Slots() {
		return 0, errors.New("backup: store full")
	}
	slot := s.nextSlot
	s.nextSlot++
	return slot, nil
}

// PutPage stores an individual backup copy of pg and returns a BackupRef
// for the page recovery index. The caller frees the page's previous backup
// (returned by PRI.SetBackup) via FreeSlot — never before the new copy is
// safely written ("it is not a good idea to overwrite an existing backup
// page", §5.2.2).
func (s *Store) PutPage(pg *page.Page) (core.BackupRef, error) {
	s.mu.Lock()
	slot, err := s.allocLocked()
	s.mu.Unlock()
	if err != nil {
		return core.BackupRef{}, err
	}
	if err := s.dev.Write(slot, pg.Encode()); err != nil {
		return core.BackupRef{}, fmt.Errorf("backup: writing page copy: %w", err)
	}
	return core.BackupRef{Kind: core.BackupPage, Loc: uint64(slot), AsOf: pg.LSN()}, nil
}

// FreeSlot releases an individual backup slot for reuse.
func (s *Store) FreeSlot(loc uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.freeLocked(storage.PhysID(loc))
}

// freeLocked returns a slot nothing references any more to the free list
// and discards its image: a free slot holds no space while it waits for
// reuse. Caller holds s.mu.
func (s *Store) freeLocked(slot storage.PhysID) {
	s.dev.Discard(slot)
	s.free = append(s.free, slot)
}

// unrefLocked drops one set's reference to slot, freeing it when that was
// the last. Caller holds s.mu.
func (s *Store) unrefLocked(slot storage.PhysID) {
	if s.slotRef[slot]--; s.slotRef[slot] <= 0 {
		delete(s.slotRef, slot)
		s.freeLocked(slot)
	}
}

// FullSetWriter accumulates a full database backup.
type FullSetWriter struct {
	store *Store
	setID uint64
	pages map[page.ID]storage.PhysID
	lsns  map[page.ID]page.LSN
	done  bool
}

// BeginFullSet starts a new full backup set. asOf records the log position
// at which the backup began: every image the set takes holds its page's
// history below it.
func (s *Store) BeginFullSet(asOf page.LSN) *FullSetWriter {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSet
	s.nextSet++
	s.setLSN[id] = asOf
	return &FullSetWriter{
		store: s, setID: id,
		pages: make(map[page.ID]storage.PhysID),
		lsns:  make(map[page.ID]page.LSN),
	}
}

// SetID returns the backup set identifier (BackupRef.Loc for BackupFull).
func (w *FullSetWriter) SetID() uint64 { return w.setID }

// Add copies one page into the set.
func (w *FullSetWriter) Add(pg *page.Page) error {
	if w.done {
		return errors.New("backup: set already committed or aborted")
	}
	w.store.mu.Lock()
	slot, err := w.store.allocLocked()
	w.store.mu.Unlock()
	if err != nil {
		return err
	}
	if err := w.store.dev.Write(slot, pg.Encode()); err != nil {
		w.store.mu.Lock()
		w.store.freeLocked(slot)
		w.store.mu.Unlock()
		return fmt.Errorf("backup: writing set page: %w", err)
	}
	w.store.mu.Lock()
	w.store.slotRef[slot]++
	w.store.mu.Unlock()
	w.pages[pg.ID()] = slot
	w.lsns[pg.ID()] = pg.LSN()
	return nil
}

// AddShared includes a page in the set WITHOUT rewriting its image: the
// new set references the slot the page already occupies in fromSet (the
// incremental-backup path — "the backup should be on direct-access media"
// §5.2.2 means individual images are addressable, so sharing an unchanged
// one costs nothing). The slot's reference count is bumped immediately, so
// dropping fromSet mid-backup cannot free it out from under the new set.
// The caller asserts the page is unchanged since fromSet captured it.
func (w *FullSetWriter) AddShared(id page.ID, fromSet uint64) error {
	if w.done {
		return errors.New("backup: set already committed or aborted")
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	set, ok := w.store.sets[fromSet]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSet, fromSet)
	}
	slot, in := set[id]
	if !in {
		return fmt.Errorf("%w: page %d in set %d", ErrNotInSet, id, fromSet)
	}
	w.store.slotRef[slot]++
	w.pages[id] = slot
	w.lsns[id] = w.store.pageLSN[fromSet][id]
	return nil
}

// Commit publishes the set; afterwards FetchBackup can resolve BackupFull
// references against it.
func (w *FullSetWriter) Commit() {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	w.store.sets[w.setID] = w.pages
	w.store.pageLSN[w.setID] = w.lsns
	w.done = true
}

// Abort abandons an uncommitted set: its references are dropped, so the
// images it wrote are freed and the ones it shared stay with their set.
// No-op after Commit.
func (w *FullSetWriter) Abort() {
	if w.done {
		return
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	for _, slot := range w.pages {
		w.store.unrefLocked(slot)
	}
	delete(w.store.setLSN, w.setID)
	w.done = true
}

// SetPageInfo reports the LSN the committed set setID captured page id at.
// ok is false when the set is unknown or does not contain the page.
func (s *Store) SetPageInfo(setID uint64, id page.ID) (page.LSN, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lsns, ok := s.pageLSN[setID]
	if !ok {
		return 0, false
	}
	lsn, in := lsns[id]
	return lsn, in
}

// DropSet releases an obsolete backup set. Each of its slots is freed (and
// its image discarded) only when no other (incremental) set still shares
// it.
func (s *Store) DropSet(setID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.sets[setID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSet, setID)
	}
	for _, slot := range set {
		s.unrefLocked(slot)
	}
	delete(s.sets, setID)
	delete(s.setLSN, setID)
	delete(s.pageLSN, setID)
	return nil
}

// SetPages lists the pages captured in a set (media recovery restores all
// of them).
func (s *Store) SetPages(setID uint64) ([]page.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.sets[setID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSet, setID)
	}
	out := make([]page.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// SetLSN returns the log position a set was taken at.
func (s *Store) SetLSN(setID uint64) (page.LSN, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lsn, ok := s.setLSN[setID]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownSet, setID)
	}
	return lsn, nil
}

// Sets lists the committed full backup sets, oldest first.
func (s *Store) Sets() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.sets))
	for id := range s.sets {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LatestSet returns the most recent committed full backup set ID, or zero.
func (s *Store) LatestSet() uint64 {
	sets := s.Sets()
	if len(sets) == 0 {
		return 0
	}
	return sets[len(sets)-1]
}

// fetchSlot reads and validates one backup image. The decoded page owns
// the buffer the device read returned.
func (s *Store) fetchSlot(slot storage.PhysID, pageID page.ID) (*page.Page, error) {
	img, err := s.dev.Read(slot)
	if err != nil {
		return nil, fmt.Errorf("%w: reading slot %d: %v", ErrBadSlot, slot, err)
	}
	pg, err := page.DecodeFor(pageID, img)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding slot %d: %v", ErrBadSlot, slot, err)
	}
	return pg, nil
}

// FormatPayload encodes the information logged in a TypeFormat record: the
// page type and the initial payload. Redo of this single record recreates
// the whole page, so the record substitutes for a backup copy (§5.2.1).
func FormatPayload(typ page.Type, payload []byte) []byte {
	buf := make([]byte, 6+len(payload))
	binary.LittleEndian.PutUint16(buf[0:], uint16(typ))
	binary.LittleEndian.PutUint32(buf[2:], uint32(len(payload)))
	copy(buf[6:], payload)
	return buf
}

// DecodeFormatPayload parses a TypeFormat record payload.
func DecodeFormatPayload(b []byte) (page.Type, []byte, error) {
	if len(b) < 6 {
		return 0, nil, ErrBadFormatRec
	}
	typ := page.Type(binary.LittleEndian.Uint16(b[0:]))
	n := binary.LittleEndian.Uint32(b[2:])
	if int(n) != len(b)-6 {
		return 0, nil, fmt.Errorf("%w: length %d vs %d", ErrBadFormatRec, n, len(b)-6)
	}
	return typ, b[6:], nil
}

// PageFromFormatRecord reconstructs the freshly formatted page a TypeFormat
// record describes.
func PageFromFormatRecord(rec *wal.Record, pageSize int) (*page.Page, error) {
	if rec.Type != wal.TypeFormat {
		return nil, fmt.Errorf("%w: record %v is not a format record", ErrBadFormatRec, rec.Type)
	}
	typ, payload, err := DecodeFormatPayload(rec.Payload)
	if err != nil {
		return nil, err
	}
	pg := page.New(rec.PageID, typ, pageSize)
	if err := pg.SetPayload(payload); err != nil {
		return nil, err
	}
	pg.SetLSN(rec.LSN)
	return pg, nil
}

// Resolver resolves every BackupKind; it implements core.BackupSource.
type Resolver struct {
	Store    *Store
	Log      *wal.Manager
	PageSize int
}

var _ core.BackupSource = (*Resolver)(nil)

// BackupLSN returns the PageLSN of the image ref names for pageID; only a
// full set has to be asked, every other reference carries it.
func (r *Resolver) BackupLSN(ref core.BackupRef, pageID page.ID) page.LSN {
	if ref.Kind == core.BackupFull {
		lsn, _ := r.Store.SetPageInfo(ref.Loc, pageID)
		return lsn
	}
	return ref.AsOf
}

// FetchBackup returns the backup image ref names for pageID.
func (r *Resolver) FetchBackup(ref core.BackupRef, pageID page.ID) (*page.Page, error) {
	switch ref.Kind {
	case core.BackupPage:
		return r.Store.fetchSlot(storage.PhysID(ref.Loc), pageID)
	case core.BackupFull:
		r.Store.mu.Lock()
		set, ok := r.Store.sets[ref.Loc]
		var slot storage.PhysID
		var in bool
		if ok {
			slot, in = set[pageID]
		}
		r.Store.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrUnknownSet, ref.Loc)
		}
		if !in {
			return nil, fmt.Errorf("%w: page %d in set %d", ErrNotInSet, pageID, ref.Loc)
		}
		return r.Store.fetchSlot(slot, pageID)
	case core.BackupFormat:
		rec, err := r.Log.Read(page.LSN(ref.Loc))
		if err != nil {
			return nil, fmt.Errorf("backup: reading format record at %d: %w", ref.Loc, err)
		}
		if rec.PageID != pageID {
			return nil, fmt.Errorf("backup: format record at %d is for page %d, want %d",
				ref.Loc, rec.PageID, pageID)
		}
		return PageFromFormatRecord(rec, r.PageSize)
	default:
		return nil, fmt.Errorf("%w: %v", ErrWrongKind, ref.Kind)
	}
}
