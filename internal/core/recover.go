package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/page"
	"repro/internal/wal"
)

// BackupSource resolves a BackupRef into an earlier page image (§5.2.1).
// The backup manager implements it for explicit copies and full backups,
// and reads format records from the log.
type BackupSource interface {
	// FetchBackup returns the backup image for pageID named by ref. The
	// returned page's LSN must equal ref.AsOf.
	FetchBackup(ref BackupRef, pageID page.ID) (*page.Page, error)
	// BackupLSN returns the PageLSN of the image ref names for pageID
	// without reading it: ref.AsOf, or what a full set recorded for the
	// page (zero if nothing is recorded).
	BackupLSN(ref BackupRef, pageID page.ID) page.LSN
}

// RedoApplier applies the redo action of a log record to a page image.
// Storage structures (the Foster B-tree, raw test pages) register their
// implementation; single-page recovery, restart redo, and media recovery
// all share it.
type RedoApplier interface {
	// ApplyRedo applies rec's redo action to pg. The caller has already
	// verified the per-page chain (rec.PagePrevLSN == pg.LSN()); the
	// applier must leave pg.LSN() untouched (the caller advances it).
	ApplyRedo(rec *wal.Record, pg *page.Page) error
}

// Errors from the recovery procedure. ErrEscalate wraps any condition under
// which "the system can resort to a media failure and appropriate
// recovery" (§5.2.3, Fig. 10).
var (
	ErrEscalate = errors.New("single-page recovery failed; escalate to media recovery")
)

// Report describes one completed single-page recovery, quantifying the §6
// expectation ("dozens of I/Os ... the total time ... should be a second or
// less").
type Report struct {
	Page page.ID
	// OwnImage reports that the replay started from the image the caller
	// had read from the page's own slot; BackupKind is then BackupNone.
	OwnImage       bool
	BackupKind     BackupKind
	RecordsApplied int
	LogReads       int
	// SimulatedIO is the simulated device+log time consumed, per the
	// iosim cost model.
	SimulatedIO time.Duration
	// WallTime is the real time the recovery took.
	WallTime time.Duration
}

// Stats aggregates recoverer activity.
type Stats struct {
	Recoveries     int64
	RecordsApplied int64
	Escalations    int64
	// OwnImage counts recoveries replayed onto the image the caller had
	// read from the page's slot; OwnImageRejected counts such images
	// recovery could not build on (older than the page's backup, or off its
	// chain) — those recoveries ran from the registered backup instead.
	OwnImage         int64
	OwnImageRejected int64
}

// Recoverer performs single-page recovery (Fig. 10):
//
//  1. obtain backup location and most recent LSN from the page recovery
//     index;
//  2. choose the image to start from — what the failed read loaded, if it
//     will do, else the backup image, which is then fetched;
//  3. walk the per-page log chain backwards, pushing records onto a LIFO
//     stack;
//  4. pop and apply the redo actions oldest-first;
//  5. hand the up-to-date page back to the buffer pool.
//
// The affected transaction never aborts; it just waits for these steps.
type Recoverer struct {
	log     *wal.Manager
	pri     *PRI
	backups BackupSource
	applier RedoApplier

	mu    sync.Mutex
	stats Stats
}

// NewRecoverer wires a recoverer to its dependencies.
func NewRecoverer(log *wal.Manager, pri *PRI, backups BackupSource, applier RedoApplier) *Recoverer {
	return &Recoverer{log: log, pri: pri, backups: backups, applier: applier}
}

// PRI returns the page recovery index the recoverer consults.
func (r *Recoverer) PRI() *PRI { return r.pri }

// Stats returns a snapshot of recovery counters.
func (r *Recoverer) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Recoverer) escalate(format string, args ...any) error {
	r.mu.Lock()
	r.stats.Escalations++
	r.mu.Unlock()
	return fmt.Errorf("%w: %s", ErrEscalate, fmt.Sprintf(format, args...))
}

// ReplayChain brings base, any true historical image of its page, up to
// head by replaying the page's per-page log chain onto it ("as of its own
// PageLSN", §5.2.1). It walks the chain newest→oldest down to base's
// PageLSN (the LIFO stack of §5.2.3), then pops it, applying redo
// oldest-first under the defensive §5.1.4 sequence check, and requires the
// result to reach head. It returns the number of records applied; on any
// error base is left part-replayed and must be discarded.
//
// A head at or below base's PageLSN means the page has not been updated
// since the image was taken — zero (Fig. 7: the LSN field is "valid only if
// the page ... has been updated since the last backup"), or the LSN of a
// write the image already holds: a full backup resets the LSN of every page
// it captured, and a completed-write record delivered late may be replayed
// over the reset. The image is current and nothing is read.
func ReplayChain(log *wal.Manager, applier RedoApplier, base *page.Page, head page.LSN) (int, error) {
	if head <= base.LSN() {
		return 0, nil
	}
	id := base.ID()
	stack, err := log.WalkPageChain(head, base.LSN(), id)
	if err != nil {
		return 0, fmt.Errorf("walking per-page chain of page %d: %w", id, err)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		rec := stack[i]
		if rec.PagePrevLSN != base.LSN() {
			return 0, fmt.Errorf(
				"per-page chain of page %d out of sequence at LSN %d: record expects PageLSN %d, page has %d",
				id, rec.LSN, rec.PagePrevLSN, base.LSN())
		}
		if err := applier.ApplyRedo(rec, base); err != nil {
			return 0, fmt.Errorf("redo of LSN %d on page %d: %w", rec.LSN, id, err)
		}
		base.SetLSN(rec.LSN)
	}
	if base.LSN() != head {
		return 0, fmt.Errorf("replayed page %d reaches LSN %d, chain head is %d", id, base.LSN(), head)
	}
	return len(stack), nil
}

// RecoverPage rebuilds the current contents of pageID by replaying its
// per-page log chain, up to the index's LastLSN, onto an older image of it.
// This is the one place that image is chosen (§5.2.1: any true older
// version will do):
//
//   - have, the image the failed read loaded from the page's own slot (nil
//     if it loaded nothing sound), when it is older than LastLSN and at
//     least as new as the registered backup — history below the backup may
//     be gone — or when the entry names no backup at all;
//   - else the registered backup; also when have's replay fails the
//     sequence check, which means it was no version of the page after all.
//     That is a rejected image, not a failed recovery.
//
// have is replayed in place and returned. Any failure of the backup's own
// replay returns an error wrapping ErrEscalate so the caller can fall back
// to media recovery.
func (r *Recoverer) RecoverPage(pageID page.ID, have *page.Page) (*page.Page, Report, error) {
	start := time.Now()
	logClockBefore := r.log.Clock().Elapsed()

	entry, err := r.pri.Get(pageID)
	if err != nil {
		return nil, Report{}, r.escalate("no page recovery index entry for page %d: %v", pageID, err)
	}
	rep := Report{Page: pageID}
	var base *page.Page
	if have != nil && have.LSN() < entry.LastLSN &&
		have.LSN() >= r.backups.BackupLSN(entry.Backup, pageID) {
		if rep.RecordsApplied, err = ReplayChain(r.log, r.applier, have, entry.LastLSN); err == nil {
			base, rep.OwnImage = have, true
		}
	}
	for base == nil {
		if base, entry, err = r.fetchBackup(pageID, entry); err != nil {
			return nil, Report{}, err
		}
		rep.BackupKind = entry.Backup.Kind
		if rep.RecordsApplied, err = ReplayChain(r.log, r.applier, base, entry.LastLSN); err != nil {
			// A full backup taken meanwhile may have superseded this backup
			// and let the log below it be recycled mid-replay. Like a freed
			// backup (fetchBackup), that is resolved again, not escalated.
			cur, gerr := r.pri.Get(pageID)
			if gerr != nil || cur.Backup == entry.Backup {
				return nil, Report{}, r.escalate("%v", err)
			}
			base, entry = nil, cur
		}
	}

	rep.LogReads = rep.RecordsApplied
	rep.SimulatedIO = r.log.Clock().Elapsed() - logClockBefore
	rep.WallTime = time.Since(start)
	r.mu.Lock()
	r.stats.Recoveries++
	r.stats.RecordsApplied += int64(rep.RecordsApplied)
	if rep.OwnImage {
		r.stats.OwnImage++
	} else if have != nil {
		r.stats.OwnImageRejected++
	}
	r.mu.Unlock()
	return base, rep, nil
}

// fetchBackup reads the backup image entry names for pageID. It returns the
// entry the image was resolved against, which a concurrent backup may have
// replaced since the caller's lookup.
func (r *Recoverer) fetchBackup(pageID page.ID, entry Entry) (*page.Page, Entry, error) {
	if entry.Backup.Kind == BackupNone {
		return nil, entry, r.escalate("page %d has no backup", pageID)
	}
	base, err := r.backups.FetchBackup(entry.Backup, pageID)
	for err != nil {
		// A newer backup may have superseded — and freed — this one between
		// the index lookup and the fetch ("the old backup page may be
		// freed", §5.2.2). That is not a failed backup: the index already
		// names the replacement, so resolve again. Each pass needs a backup
		// taken meanwhile; an unchanged reference is a real failure.
		cur, gerr := r.pri.Get(pageID)
		if gerr != nil || cur.Backup == entry.Backup {
			return nil, entry, r.escalate("fetching backup for page %d: %v", pageID, err)
		}
		entry = cur
		base, err = r.backups.FetchBackup(entry.Backup, pageID)
	}
	// For singleton entries the index knows the exact backup LSN; verify
	// it. Range-compressed entries (full backups) leave AsOf zero because
	// each covered page has its own LSN inside the backup set.
	if entry.Backup.AsOf != page.ZeroLSN && base.LSN() != entry.Backup.AsOf {
		return nil, entry, r.escalate(
			"backup of page %d is as of LSN %d, index expected %d",
			pageID, base.LSN(), entry.Backup.AsOf)
	}
	return base, entry, nil
}
