package recovery

import (
	"repro/internal/backup"
	"repro/internal/core"
)

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
// the log analysis, the backups in store that outlived the device, and the
// log (§5.1.3, reshaped per Sauer et al.'s instant restore). Unlike the
// paper's bulk offline process ("due to the effort of restoring a backup
// copy, active transactions touching the failed media are aborted",
// §5.1.3), it only *prepares* the replacement device: every page keeps the
// backup source and recovery target analysis found for it, so each can be
// rebuilt on demand — or in the background — by ordinary single-page
// recovery. Where the old bulk procedure restored every image and replayed
// the whole log forward — O(device) + O(log) before the first read could
// be served — this is the analysis pass plus O(pages) of bookkeeping on
// what it rebuilt:
//
//   - the analysed index already names each page's backup — a page backup
//     newer than the set, the set itself, the format record of a page born
//     after it — and, for a page whose last write completed, its chain
//     head. An entry that never had a backup is pointed at setID, the
//     newest full set, when the set holds the page. A page born after the
//     set always has its format record registered — by its allocation, a
//     checkpoint's index snapshot or the analysis scan — so no chain walk
//     is needed to find one;
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
func PrepareMedia(store *backup.Store, a *AnalysisResult, setID uint64) ([]RedoPage, *MediaReport, error) {
	rep := &MediaReport{}
	if _, err := store.SetLSN(setID); err != nil {
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
		setLSN, inSet := store.SetPageInfo(setID, id)
		if e.Backup.Kind == core.BackupNone && inSet {
			e.Backup = core.BackupRef{Kind: core.BackupFull, Loc: setID}
			a.PRI.SetBackup(id, e.Backup)
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
