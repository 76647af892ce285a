package recovery

import (
	"fmt"

	"repro/internal/backup"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/wal"
)

// MediaDeps is what media recovery needs besides the log analysis. Unlike
// the paper's bulk offline process ("due to the effort of restoring a
// backup copy, active transactions touching the failed media are aborted",
// §5.1.3), recovery here only *prepares* the replacement device for instant
// restore: every page keeps the backup source and recovery target analysis
// found for it, so each can be rebuilt on demand — or in the background —
// by ordinary single-page recovery.
type MediaDeps struct {
	Log   *wal.Manager
	Store *backup.Store
}

// MediaReport quantifies one media-recovery preparation.
type MediaReport struct {
	// PagesRestored counts pages registered for restore. With the
	// instant-restore shape no page image is rebuilt here; the restore
	// scheduler replays each page's chain on demand (foreground faults
	// first) and in the background until all of them are back.
	PagesRestored int
	// LateBornPages counts pages formatted after the backup set was
	// taken; they restore purely from their per-page log chains (the
	// format record is the backup, §5.2.1).
	LateBornPages int
}

// PrepareMedia prepares a revived (empty) device for instant restore from
// the log analysis, the backups that outlived the device, and the log
// (§5.1.3, reshaped per Sauer et al.'s instant restore). Where the old bulk
// procedure restored every image and replayed the whole log forward —
// O(device) + O(log) before the first read could be served — this is the
// analysis pass plus O(pages) of bookkeeping on what it rebuilt:
//
//   - the analysed index already names each page's backup — a page backup
//     newer than the set, the set itself, the format record of a page born
//     after it — and, for a page whose last write completed, its chain
//     head. Only an entry whose backup went down with the device (a
//     pre-move data slot) or that never had one is pointed at setID, the
//     newest full set — or, for a page the set does not hold, at the
//     format record its chain starts with;
//   - a page still in the recovery requirements has its expectation raised
//     to the analysed chain head, as restart preparation does;
//   - every page is taken off its slot: the new device holds no image of
//     anything. The first read of a page therefore goes straight to
//     ordinary single-page recovery against the entry prepared here, and
//     its first write-back binds it to a slot of the new device
//     ("restoring to alternative media requires remapping page
//     identifiers", §5.1.3 — the logical page map does exactly that). The
//     caller serves reads *during* restore by scheduling exactly those
//     repairs.
//
// The analysed map and index, now describing the new device, are the
// caller's to wire into a fresh engine; the returned pages, each with the
// log span its replay covers as cost, are its restore backlog — see
// spf.DB.RecoverMedia.
func PrepareMedia(d MediaDeps, a *AnalysisResult, setID uint64) ([]RedoPage, *MediaReport, error) {
	rep := &MediaReport{}
	if _, err := d.Store.SetLSN(setID); err != nil {
		return nil, rep, err
	}
	a.Map.ForgetSlots()
	var backlog []RedoPage
	for _, id := range a.Map.Pages() {
		e, err := a.PRI.Get(id)
		if err != nil {
			// Allocated, but its format record never reached the log: no
			// surviving structure refers to the page.
			continue
		}
		if head, ok := a.Heads[id]; ok {
			e, _ = a.PRI.SetLastLSN(id, head)
		}
		setLSN, inSet := d.Store.SetPageInfo(setID, id)
		if e.Backup.Kind == core.BackupDataSlot || e.Backup.Kind == core.BackupNone {
			ref := core.BackupRef{Kind: core.BackupFull, Loc: setID}
			if !inSet {
				if ref, err = formatBackup(d.Log, id, e.LastLSN); err != nil {
					return nil, rep, err
				}
			}
			a.PRI.SetBackup(id, ref)
			e.Backup = ref
		}
		if !inSet {
			rep.LateBornPages++
		}
		base := e.Backup.AsOf
		if e.Backup.Kind == core.BackupFull {
			base = setLSN
		}
		backlog = append(backlog, RedoPage{ID: id, Cost: max(0, int64(e.LastLSN)-int64(base))})
	}
	rep.PagesRestored = len(backlog)
	return backlog, rep, nil
}

// formatBackup finds the format record at the root of page id's chain by
// walking it back from head. Only a page born after the newest full set
// whose index entry named a pre-move slot of the lost device needs it.
func formatBackup(log *wal.Manager, id page.ID, head page.LSN) (core.BackupRef, error) {
	chain, err := log.WalkPageChain(head, page.ZeroLSN, id)
	if err != nil {
		return core.BackupRef{}, fmt.Errorf("recovery: seeking format record of page %d: %w", id, err)
	}
	if n := len(chain); n == 0 || chain[n-1].Type != wal.TypeFormat {
		return core.BackupRef{}, fmt.Errorf("recovery: page %d has no backup and its chain from %d does not start with a format record", id, head)
	}
	root := chain[len(chain)-1].LSN
	return core.BackupRef{Kind: core.BackupFormat, Loc: uint64(root), AsOf: root}, nil
}
