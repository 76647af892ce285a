// Package backup manages the sources of backup pages enumerated in paper
// §5.2.1 that this engine produces:
//
//   - full database backups ("the same type of archive copy as required
//     after a media failure"), held on direct-access media so single pages
//     can be fetched individually — the Store, whose device holds full
//     sets only;
//   - explicit per-page backup copies, e.g. taken "after every 100 updates
//     of a data page", held in the log: each is one TypeImage record
//     (ImageRecord), the in-log copy of §5.2.1, which the live log or an
//     archive run serves;
//   - the format log record written when a page is allocated (TypeFormat),
//     which "may substitute for an explicit backup copy".
//
// The Resolver implements core.BackupSource over all three. Pages are
// written in place, so §5.2.1's pre-move image — what a log-structured
// store keeps by deferring space reclamation — is not among them.
//
// A set's space is given back by one reachability sweep (Store.Sweep),
// never when the set is superseded: "the old backup page may be freed"
// (§5.2.2) once nothing can resolve against it, and the page recovery index
// a restart rebuilds is what decides that. A log-held image goes with the
// log history around it, which the archiver keeps while the index names it.
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
	ErrBadFormatRec = errors.New("backup: malformed format or image record payload")
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
	sets     map[uint64]map[page.ID]storage.PhysID // committed sets
	open     map[uint64]map[page.ID]storage.PhysID // sets being written
	setLSN   map[uint64]page.LSN                   // log position the set was taken at
	// pageLSN records, per set, the LSN each captured image carried — the
	// basis for the incremental-backup skip decision ("has this page been
	// written since the previous backup captured it?").
	pageLSN map[uint64]map[page.ID]page.LSN
	nextSet uint64
}

// NewStore creates a backup store on the given device.
func NewStore(dev *storage.Device) *Store {
	return &Store{
		dev:     dev,
		sets:    make(map[uint64]map[page.ID]storage.PhysID),
		open:    make(map[uint64]map[page.ID]storage.PhysID),
		setLSN:  make(map[uint64]page.LSN),
		pageLSN: make(map[uint64]map[page.ID]page.LSN),
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

// Sweep frees, discarding their images, the slots of every committed set
// no root reaches, and forgets the set. The roots are:
//
//   - named, the backup references the page recovery index holds;
//   - the newest committed set, which media recovery restores from even
//     when the index names none of it (a backup a crash cut before its
//     index records were stable);
//   - every set still being written.
//
// A slot two sets share stays while either is reachable. durable runs
// first, under the store's mutex: it must make the index named came from
// durable — force the log — or fail, and then nothing is freed. No slot is
// allocated meanwhile, so every slot freed is unreachable from that index,
// the one a restart rebuilds, and from every set begun before the sweep.
func (s *Store) Sweep(named []core.BackupRef, durable func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := durable(); err != nil {
		return err
	}
	live := map[uint64]bool{s.latestLocked(): true}
	for _, ref := range named {
		if ref.Kind == core.BackupFull {
			live[ref.Loc] = true
		}
	}
	keep := make([]bool, s.nextSlot)
	for id, set := range s.sets {
		if !live[id] {
			delete(s.sets, id)
			delete(s.setLSN, id)
			delete(s.pageLSN, id)
			continue
		}
		for _, slot := range set {
			keep[slot] = true
		}
	}
	for _, set := range s.open {
		for _, slot := range set {
			keep[slot] = true
		}
	}
	for _, slot := range s.free {
		keep[slot] = true
	}
	for slot, k := range keep {
		if !k {
			s.dev.Discard(storage.PhysID(slot))
			s.free = append(s.free, storage.PhysID(slot))
		}
	}
	return nil
}

// FullSetWriter accumulates a full database backup.
type FullSetWriter struct {
	store *Store
	setID uint64
	pages map[page.ID]storage.PhysID // the store's open entry for the set
	lsns  map[page.ID]page.LSN
	done  bool
}

// BeginFullSet starts a new full backup set. asOf records the log position
// at which the backup began: every image the set takes holds its page's
// history below it. Until Commit or Abort the set's slots are sweep roots.
func (s *Store) BeginFullSet(asOf page.LSN) *FullSetWriter {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSet
	s.nextSet++
	s.setLSN[id] = asOf
	w := &FullSetWriter{
		store: s, setID: id,
		pages: make(map[page.ID]storage.PhysID),
		lsns:  make(map[page.ID]page.LSN),
	}
	s.open[id] = w.pages
	return w
}

// SetID returns the backup set identifier (BackupRef.Loc for BackupFull).
func (w *FullSetWriter) SetID() uint64 { return w.setID }

// Add copies one page into the set. A slot whose write fails is freed
// again at once: nothing can have named it.
func (w *FullSetWriter) Add(pg *page.Page) error {
	if w.done {
		return errors.New("backup: set already committed or aborted")
	}
	s := w.store
	s.mu.Lock()
	slot, err := s.allocLocked()
	if err == nil {
		w.pages[pg.ID()] = slot
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.dev.Write(slot, pg.Encode()); err != nil {
		s.mu.Lock()
		delete(w.pages, pg.ID())
		s.dev.Discard(slot)
		s.free = append(s.free, slot)
		s.mu.Unlock()
		return fmt.Errorf("backup: writing set page: %w", err)
	}
	w.lsns[pg.ID()] = pg.LSN()
	return nil
}

// AddShared includes a page in the set WITHOUT rewriting its image: the
// new set names the slot the page already occupies in fromSet (the
// incremental-backup path — "the backup should be on direct-access media"
// §5.2.2 means individual images are addressable, so sharing an unchanged
// one costs nothing). A slot two sets name stays while either is
// reachable. The caller asserts the page is unchanged since fromSet
// captured it.
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
	w.pages[id] = slot
	w.lsns[id] = w.store.pageLSN[fromSet][id]
	return nil
}

// Commit publishes the set; afterwards FetchBackup can resolve BackupFull
// references against it.
func (w *FullSetWriter) Commit() {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	delete(w.store.open, w.setID)
	w.store.sets[w.setID] = w.pages
	w.store.pageLSN[w.setID] = w.lsns
	w.done = true
}

// Abort abandons an uncommitted set: it stops being a root, so the next
// sweep frees the images it wrote, and the ones it shared stay with their
// set. No-op after Commit.
func (w *FullSetWriter) Abort() {
	if w.done {
		return
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	delete(w.store.open, w.setID)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestLocked()
}

func (s *Store) latestLocked() uint64 {
	var newest uint64
	for id := range s.sets {
		newest = max(newest, id)
	}
	return newest
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

// imagePrefix is what a TypeImage payload carries ahead of a format
// payload: the copied page's PageLSN (8 bytes) and header flags (2).
const imagePrefix = 8 + 2

// ImageRecord builds the TypeImage record that holds pg as its page's
// backup copy: pg's PageLSN, flags, type and used payload bytes — the slack
// beyond them is not logged. The record is the copy and its installation
// at once: appended, it names itself as the page's backup (ImageRef), and
// a restart that finds it registers it again. It joins no per-page chain
// and no transaction.
func ImageRecord(pg *page.Page) *wal.Record {
	payload := pg.Payload()
	buf := make([]byte, imagePrefix+6+len(payload))
	binary.LittleEndian.PutUint64(buf[0:], uint64(pg.LSN()))
	binary.LittleEndian.PutUint16(buf[8:], pg.Flags())
	binary.LittleEndian.PutUint16(buf[10:], uint16(pg.Type()))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(payload)))
	copy(buf[16:], payload)
	return &wal.Record{Type: wal.TypeImage, PageID: pg.ID(), Payload: buf}
}

// ImageRef returns the backup reference an appended TypeImage record
// names: the image in the record at rec.LSN, as of the PageLSN it carries.
func ImageRef(rec *wal.Record) (core.BackupRef, error) {
	if rec.Type != wal.TypeImage || len(rec.Payload) < imagePrefix {
		return core.BackupRef{}, fmt.Errorf("%w: %v record of %d bytes", ErrBadFormatRec, rec.Type, len(rec.Payload))
	}
	asOf := page.LSN(binary.LittleEndian.Uint64(rec.Payload))
	return core.BackupRef{Kind: core.BackupLog, Loc: uint64(rec.LSN), AsOf: asOf}, nil
}

// PageFromLogRecord reconstructs the page image a log record holds: the
// freshly formatted page a TypeFormat record describes, as of the record
// itself, or the copy a TypeImage record carries, as of the PageLSN it
// was taken at.
func PageFromLogRecord(rec *wal.Record, pageSize int) (*page.Page, error) {
	b, lsn, flags := rec.Payload, rec.LSN, uint16(0)
	switch rec.Type {
	case wal.TypeFormat:
	case wal.TypeImage:
		ref, err := ImageRef(rec)
		if err != nil {
			return nil, err
		}
		lsn, flags, b = ref.AsOf, binary.LittleEndian.Uint16(b[8:]), b[imagePrefix:]
	default:
		return nil, fmt.Errorf("%w: record %v holds no page image", ErrBadFormatRec, rec.Type)
	}
	typ, payload, err := DecodeFormatPayload(b)
	if err != nil {
		return nil, err
	}
	pg := page.New(rec.PageID, typ, pageSize)
	if err := pg.SetPayload(payload); err != nil {
		return nil, err
	}
	pg.SetFlags(flags)
	pg.SetLSN(lsn)
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

// FetchBackup returns the backup image ref names for pageID. A log-held
// image is read through the log, which serves a record recycled out of it
// from the archive; one of another page, or not as of ref.AsOf, is
// refused.
func (r *Resolver) FetchBackup(ref core.BackupRef, pageID page.ID) (*page.Page, error) {
	switch ref.Kind {
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
	case core.BackupLog:
		rec, err := r.Log.Read(page.LSN(ref.Loc))
		if err != nil {
			return nil, fmt.Errorf("backup: reading the image record at %d: %w", ref.Loc, err)
		}
		if rec.PageID != pageID {
			return nil, fmt.Errorf("%w: %v record at %d is for page %d, want %d",
				ErrBadFormatRec, rec.Type, ref.Loc, rec.PageID, pageID)
		}
		pg, err := PageFromLogRecord(rec, r.PageSize)
		if err != nil {
			return nil, err
		}
		if pg.LSN() != ref.AsOf {
			return nil, fmt.Errorf("%w: %v record at %d holds page %d as of %d, want %d",
				ErrBadFormatRec, rec.Type, ref.Loc, pageID, pg.LSN(), ref.AsOf)
		}
		return pg, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrWrongKind, ref.Kind)
	}
}
