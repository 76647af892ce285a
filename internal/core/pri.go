package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/page"
)

// BackupKind identifies which of the §5.2.1 backup sources an entry points
// at (cf. Fig. 7: "page identifier or log sequence number of last page
// formatting or of in-log copy"): a full backup set, or an image held in
// the log — the page's format record or an in-log page copy. One source of
// §5.2.1 has no producer here: the pre-move image a log-structured store,
// which writes every page to a new location, keeps by deferring space
// reclamation — the kind such a store would add back.
type BackupKind uint8

const (
	// BackupNone: no backup exists; the page cannot be recovered from a
	// single-page failure and the failure escalates.
	BackupNone BackupKind = iota
	// BackupFull: the page is covered by a full database backup; Loc is
	// the backup set identifier and the per-page location is derived
	// from the page ID inside the set. This is the range-compressed
	// common case ("a single entry should cover a large range of pages
	// ... e.g., a backup of the entire database", §5.2.2).
	BackupFull
	// BackupLog: Loc is the LSN of a log record that holds the page's
	// image — the TypeFormat record written when the page was allocated,
	// whose redo recreates the initial page, or a TypeImage page copy (an
	// explicit DB.BackupPage, or one §6's policy takes). AsOf is the
	// image's PageLSN: the format record's own LSN, or the LSN the copied
	// page carried, below the copy's record.
	BackupLog
)

func (k BackupKind) String() string {
	switch k {
	case BackupNone:
		return "none"
	case BackupFull:
		return "full-backup"
	case BackupLog:
		return "log-image"
	default:
		return fmt.Sprintf("backup-kind(%d)", uint8(k))
	}
}

// BackupRef locates the most recent backup of a page (Fig. 7, first row).
type BackupRef struct {
	Kind BackupKind
	// Loc is a backup-set ID or an LSN, per Kind.
	Loc uint64
	// AsOf is the PageLSN captured in the backup: the per-page chain
	// walk stops here (§5.2.3).
	AsOf page.LSN
}

// Entry is the information the page recovery index tracks per page
// (Fig. 7).
type Entry struct {
	Backup BackupRef
	// LastLSN is the LSN of the most recent log record pertaining to the
	// page. Per §5.2.2 it is valid only while the page is not resident
	// in the buffer pool; while the page is dirty in the pool the entry
	// deliberately falls behind (Fig. 6's dashed line).
	LastLSN page.LSN
	// Updates counts the page's updates written back since its backup was
	// registered — "counted within the page, incremented whenever the
	// PageLSN changes" (§6), summed per write-back (RecordWrite). It lives
	// in memory only: snapshots and log records do not carry it, so a
	// restart starts every count at zero.
	Updates int
}

// entryBytes is the serialized size of one PRI record. The paper's §5.2.2
// bounds the worst case at "about 16 bytes per database page"; our entry
// packs kind+loc+asof+lastLSN into 25 bytes per *range*, so with range
// compression typical footprints stay far below the bound and the
// worst-case (singleton ranges with 16-byte amortization of lo==hi) is
// measured by experiment E7.
const entryBytes = 8 + 8 + 1 + 8 + 8 + 8 // lo,hi,kind,loc,asof,lastLSN

// rng is one range-compressed PRI record: all pages in [lo,hi] share the
// mapping.
type rng struct {
	lo, hi page.ID
	e      Entry
}

// PRI is the page recovery index: an ordered, range-compressed map from
// page identifiers to recovery information. The paper recommends an
// ordered index over a hash index precisely because ranges compress
// (§5.2.2); it also estimates the index small enough to "keep in memory at
// all times", which is what this implementation does. Durability comes
// from logging every update as a system transaction (§5.2.4) and restoring
// from checkpoint snapshots plus log replay (§5.2.5).
type PRI struct {
	mu     sync.RWMutex
	ranges []rng // sorted by lo, non-overlapping
	pages  int   // pages the ranges cover, kept by splice
}

// size returns the number of pages r covers.
func (r rng) size() int { return int(r.hi - r.lo + 1) }

// ErrNoEntry reports that the PRI holds no information for a page; per
// §5.2.3 the caller must then escalate to a media failure.
var ErrNoEntry = errors.New("pri: no entry for page")

// NewPRI returns an empty page recovery index.
func NewPRI() *PRI {
	return &PRI{}
}

// find returns the index of the range containing id, or -1.
func (p *PRI) find(id page.ID) int {
	i := sort.Search(len(p.ranges), func(i int) bool { return p.ranges[i].hi >= id })
	if i < len(p.ranges) && p.ranges[i].lo <= id && id <= p.ranges[i].hi {
		return i
	}
	return -1
}

// Get returns the entry covering page id.
func (p *PRI) Get(id page.ID) (Entry, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if i := p.find(id); i >= 0 {
		return p.ranges[i].e, nil
	}
	return Entry{}, fmt.Errorf("%w: %d", ErrNoEntry, id)
}

// SetRange installs one mapping for every page in [lo, hi], replacing any
// overlapped (parts of) existing ranges. Used when a full database backup
// completes: one entry then covers the whole database.
func (p *PRI) SetRange(lo, hi page.ID, e Entry) {
	if hi < lo {
		panic(fmt.Sprintf("pri: SetRange %d > %d", lo, hi))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setRangeLocked(lo, hi, e)
}

// ReplaceRange points every page in [lo, hi] at the backup e names — a full
// set taken at log position takenAt. What it replaces is not reported: a
// set the index stops naming is freed by the backup store's next sweep,
// once the record describing this update is durable, and a log-held image
// goes with the log around it.
//
// A page whose LastLSN is at or above takenAt — the next record's LSN when
// the backup began — keeps it: that write carries an update logged after
// the backup began, so the set's image of the page may be older, and
// resetting the LSN would declare the image current — the page's next
// recovery would silently stop short. Every other page takes e.LastLSN
// (zero: not updated since the backup), which is what lets one range cover
// the database.
func (p *PRI) ReplaceRange(lo, hi page.ID, e Entry, takenAt page.LSN) {
	if hi < lo {
		panic(fmt.Sprintf("pri: ReplaceRange %d > %d", lo, hi))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	i, j := p.overlap(lo, hi)
	var kept []rng
	for _, r := range p.ranges[i:j] {
		if r.e.LastLSN >= takenAt {
			kept = append(kept, rng{max(r.lo, lo), min(r.hi, hi), Entry{Backup: e.Backup, LastLSN: r.e.LastLSN}})
		}
	}
	p.setRangeLocked(lo, hi, e)
	for _, k := range kept {
		p.setRangeLocked(k.lo, k.hi, k.e)
	}
}

// overlap returns the half-open span of ranges that intersect [lo, hi]: i
// is the first range overlapping or after lo, j the first fully after hi.
func (p *PRI) overlap(lo, hi page.ID) (i, j int) {
	i = sort.Search(len(p.ranges), func(k int) bool { return p.ranges[k].hi >= lo })
	j = sort.Search(len(p.ranges), func(k int) bool { return p.ranges[k].lo > hi })
	return i, j
}

// setRangeLocked replaces the span [lo, hi] with a single new range,
// keeping fragments of partially overlapped neighbors and re-merging
// ("coalescing") at the seams. It splices in place with binary search, so
// a singleton update costs O(log n) plus the tail move — the operation is
// on the write-back path of every page and must not scan the whole index.
func (p *PRI) setRangeLocked(lo, hi page.ID, e Entry) {
	// Ranges [i, j) are (partially) replaced.
	i, j := p.overlap(lo, hi)
	repl := make([]rng, 0, 3)
	if i < j && p.ranges[i].lo < lo {
		repl = append(repl, rng{p.ranges[i].lo, lo - 1, p.ranges[i].e})
	}
	repl = append(repl, rng{lo, hi, e})
	if i < j && p.ranges[j-1].hi > hi {
		repl = append(repl, rng{hi + 1, p.ranges[j-1].hi, p.ranges[j-1].e})
	}
	p.splice(i, j, repl)
}

// splice replaces ranges[i:j] with repl and coalesces at both seams.
func (p *PRI) splice(i, j int, repl []rng) {
	// Merge repl internally first (adjacent equal entries).
	merged := repl[:0]
	for _, r := range repl {
		if n := len(merged); n > 0 && merged[n-1].hi+1 == r.lo && merged[n-1].e == r.e {
			merged[n-1].hi = r.hi
		} else {
			merged = append(merged, r)
		}
	}
	// Merge with the left neighbor.
	if i > 0 && len(merged) > 0 {
		left := p.ranges[i-1]
		if left.hi+1 == merged[0].lo && left.e == merged[0].e {
			merged[0].lo = left.lo
			i--
		}
	}
	// Merge with the right neighbor.
	if j < len(p.ranges) && len(merged) > 0 {
		right := p.ranges[j]
		last := len(merged) - 1
		if merged[last].hi+1 == right.lo && merged[last].e == right.e {
			merged[last].hi = right.hi
			j++
		}
	}
	for _, r := range p.ranges[i:j] {
		p.pages -= r.size()
	}
	for _, r := range merged {
		p.pages += r.size()
	}
	switch {
	case len(merged) == j-i:
		copy(p.ranges[i:j], merged)
	case len(merged) < j-i:
		copy(p.ranges[i:], merged)
		copy(p.ranges[i+len(merged):], p.ranges[j:])
		p.ranges = p.ranges[:len(p.ranges)-(j-i)+len(merged)]
	default:
		extra := len(merged) - (j - i)
		p.ranges = append(p.ranges, make([]rng, extra)...)
		copy(p.ranges[j+extra:], p.ranges[j:])
		copy(p.ranges[i:], merged)
	}
}

// Set installs the mapping for a single page, splitting the covering range
// if necessary.
func (p *PRI) Set(id page.ID, e Entry) {
	p.SetRange(id, id, e)
}

// SetLastLSN records the most recent log record for page id after its
// dirty image has been written back to the database (§5.2.4), preserving
// the page's existing backup reference. It returns the updated entry.
//
// The update is monotone: a page's newest-record LSN never moves
// backwards, so a completed-write notification delivered late — batched
// write-back racing an eviction flush of the same page, or an old
// PRIUpdate record replayed after a newer one during restart analysis —
// cannot regress the index below history that is already durable (a
// regressed LastLSN would make a later single-page recovery stop its
// chain walk early and silently lose committed updates).
func (p *PRI) SetLastLSN(id page.ID, lsn page.LSN) (Entry, error) {
	return p.RecordWrite(id, lsn, 0)
}

// RecordWrite is SetLastLSN for a write-back whose image carries updates
// page updates the previous write-back did not: they are added to the
// entry's Updates.
func (p *PRI) RecordWrite(id page.ID, lsn page.LSN, updates int) (Entry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.find(id)
	if i < 0 {
		return Entry{}, fmt.Errorf("%w: %d", ErrNoEntry, id)
	}
	e := p.ranges[i].e
	if lsn > e.LastLSN || updates != 0 {
		e.LastLSN = max(e.LastLSN, lsn)
		e.Updates += updates
		p.setRangeLocked(id, id, e)
	}
	return e, nil
}

// SetBackup records a new backup for page id, creating the page's entry
// if it has none. The backup it replaces is not freed here: a full set
// goes at the backup store's next sweep, a log-held image once the log
// below the release horizon goes ("when a new backup page is taken ... the
// old backup page may be freed", §5.2.2). If the new backup is at least as
// recent as every update (ref.AsOf >= LastLSN), the LastLSN resets to the
// backup point: nothing needs replay. The page's update count restarts at
// zero.
func (p *PRI) SetBackup(id page.ID, ref BackupRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := Entry{Backup: ref, LastLSN: ref.AsOf}
	if i := p.find(id); i >= 0 {
		e.LastLSN = max(p.ranges[i].e.LastLSN, ref.AsOf)
	}
	p.setRangeLocked(id, id, e)
}

// RangeCount returns the number of range-compressed records.
func (p *PRI) RangeCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.ranges)
}

// PageCount returns the number of pages covered.
func (p *PRI) PageCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pages
}

// SizeBytes estimates the serialized index size — the quantity §5.2.2
// bounds at "about 16 bytes per database page or about 1‰ of the database
// size" in the worst case.
func (p *PRI) SizeBytes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.ranges) * entryBytes
}

// CompactSizeBytes estimates the index size under a production B-tree
// encoding with prefix-truncated keys: a singleton entry needs the paper's
// ~16 bytes (backup locator + LSN, the page-ID key amortized into the
// B-tree separator structure), and a range entry needs 8 more for the
// second bound. Experiment E7 reports both this and the literal in-memory
// footprint SizeBytes.
func (p *PRI) CompactSizeBytes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	total := 0
	for _, r := range p.ranges {
		if r.lo == r.hi {
			total += 16
		} else {
			total += 24
		}
	}
	return total
}

// Snapshot serializes the index for a checkpoint (§5.2.6).
func (p *PRI) Snapshot() []byte {
	p.mu.RLock()
	defer p.mu.RUnlock()
	buf := make([]byte, 8, 8+len(p.ranges)*entryBytes)
	binary.LittleEndian.PutUint64(buf, uint64(len(p.ranges)))
	var tmp [entryBytes]byte
	for _, r := range p.ranges {
		binary.LittleEndian.PutUint64(tmp[0:], uint64(r.lo))
		binary.LittleEndian.PutUint64(tmp[8:], uint64(r.hi))
		tmp[16] = byte(r.e.Backup.Kind)
		binary.LittleEndian.PutUint64(tmp[17:], r.e.Backup.Loc)
		binary.LittleEndian.PutUint64(tmp[25:], uint64(r.e.Backup.AsOf))
		binary.LittleEndian.PutUint64(tmp[33:], uint64(r.e.LastLSN))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// ErrBadSnapshot reports a corrupt PRI snapshot.
var ErrBadSnapshot = errors.New("pri: corrupt snapshot")

// RestorePRI rebuilds a PRI from a Snapshot.
func RestorePRI(snap []byte) (*PRI, error) {
	if len(snap) < 8 {
		return nil, ErrBadSnapshot
	}
	n := int(binary.LittleEndian.Uint64(snap))
	if len(snap) != 8+n*entryBytes {
		return nil, fmt.Errorf("%w: %d ranges, %d bytes", ErrBadSnapshot, n, len(snap))
	}
	p := NewPRI()
	pos := 8
	for i := 0; i < n; i++ {
		r := rng{
			lo: page.ID(binary.LittleEndian.Uint64(snap[pos:])),
			hi: page.ID(binary.LittleEndian.Uint64(snap[pos+8:])),
			e: Entry{
				Backup: BackupRef{
					Kind: BackupKind(snap[pos+16]),
					Loc:  binary.LittleEndian.Uint64(snap[pos+17:]),
					AsOf: page.LSN(binary.LittleEndian.Uint64(snap[pos+25:])),
				},
				LastLSN: page.LSN(binary.LittleEndian.Uint64(snap[pos+33:])),
			},
		}
		if len(p.ranges) > 0 && r.lo <= p.ranges[len(p.ranges)-1].hi {
			return nil, fmt.Errorf("%w: overlapping ranges", ErrBadSnapshot)
		}
		p.ranges = append(p.ranges, r)
		p.pages += r.size()
		pos += entryBytes
	}
	return p, nil
}

// Validate checks the structural invariants: sorted, non-overlapping,
// non-empty ranges. Intended for tests and defensive checks.
func (p *PRI) Validate() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for i, r := range p.ranges {
		if r.hi < r.lo {
			return fmt.Errorf("pri: inverted range [%d,%d]", r.lo, r.hi)
		}
		if i > 0 && r.lo <= p.ranges[i-1].hi {
			return fmt.Errorf("pri: overlap between [%d,%d] and [%d,%d]",
				p.ranges[i-1].lo, p.ranges[i-1].hi, r.lo, r.hi)
		}
	}
	return nil
}

// ForEachRange visits every range in order; used by reporting code.
func (p *PRI) ForEachRange(fn func(lo, hi page.ID, e Entry) bool) {
	p.mu.RLock()
	ranges := append([]rng(nil), p.ranges...)
	p.mu.RUnlock()
	for _, r := range ranges {
		if !fn(r.lo, r.hi, r.e) {
			return
		}
	}
}
