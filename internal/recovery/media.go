package recovery

import (
	"fmt"

	"repro/internal/backup"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// MediaDeps is what media recovery needs. Unlike the paper's bulk offline
// process ("due to the effort of restoring a backup copy, active
// transactions touching the failed media are aborted", §5.1.3), recovery
// here only *prepares* the replacement device for instant restore: it
// rebuilds the page map and a page recovery index that points every page
// at its backup source and chain head, so each page can be rebuilt
// on demand — or in the background — by ordinary single-page recovery.
type MediaDeps struct {
	Log   *wal.Manager
	Dev   *storage.Device
	Store *backup.Store
	Mode  pagemap.Mode
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
	// ChainRecords is the summed per-page chain length from the log's
	// chain index — an upper bound on the log records on-demand restore
	// will replay across all pages.
	ChainRecords int64
}

// RecoverMedia prepares a revived (empty) device for instant restore from
// the full backup set plus the log (§5.1.3, reshaped per Sauer et al.'s
// instant restore). Where the old bulk procedure restored every image and
// replayed the whole log forward — O(device) + O(log) before the first
// read could be served — this preparation is O(pages):
//
//   - every page in the backup set gets a page-recovery-index entry
//     pointing at the set (range-compressed) with LastLSN taken from the
//     log's per-page chain index, so a chain walk seeks straight to the
//     page's newest record instead of scanning the log tail;
//   - pages born after the backup (present in the chain index, absent
//     from the set) get a format-record backup entry;
//   - every page is bound to a fresh, unwritten device slot. The first
//     validating read of such a slot fails its in-page checks and routes
//     into ordinary single-page recovery, which rebuilds the page from
//     the index entry prepared here — the caller serves reads *during*
//     restore by scheduling exactly those repairs.
//
// The returned map and index are the caller's to wire into a fresh engine;
// enqueueing the actual repairs is the caller's business — see
// spf.DB.RecoverMedia.
func RecoverMedia(d MediaDeps, setID uint64) (*pagemap.Map, *core.PRI, *MediaReport, error) {
	rep := &MediaReport{}
	if _, err := d.Store.SetLSN(setID); err != nil {
		return nil, nil, rep, err
	}
	ids, err := d.Store.SetPages(setID)
	if err != nil {
		return nil, nil, rep, err
	}
	pm := pagemap.New(d.Mode, d.Dev.Slots())
	pri := core.NewPRI()

	// "Restoring to alternative media requires remapping page identifiers"
	// (§5.1.3) — the logical page map does exactly that.
	inSet := make(map[page.ID]bool, len(ids))
	for _, id := range ids {
		inSet[id] = true
		pm.AdoptFresh(id)
	}
	if len(ids) > 0 {
		// One range-compressed entry covers the whole set (§5.2.2).
		pri.SetRange(ids[0], ids[len(ids)-1], core.Entry{
			Backup: core.BackupRef{Kind: core.BackupFull, Loc: setID},
		})
	}

	// The per-page chain index replaces the forward log scan: it already
	// knows, for every page, the newest logged record (the recovery
	// target) and — for pages born after the backup — the format record
	// that substitutes for a backup copy.
	d.Log.Chains(func(id page.ID, ci wal.ChainInfo) bool {
		rep.ChainRecords += ci.Length
		if inSet[id] {
			if _, err := pri.SetLastLSN(id, ci.Head); err != nil {
				pri.Set(id, core.Entry{
					Backup:  core.BackupRef{Kind: core.BackupFull, Loc: setID},
					LastLSN: ci.Head,
				})
			}
			return true
		}
		pm.AdoptFresh(id)
		pri.Set(id, core.Entry{
			Backup:  core.BackupRef{Kind: core.BackupFormat, Loc: uint64(ci.Tail), AsOf: ci.Tail},
			LastLSN: ci.Head,
		})
		rep.LateBornPages++
		return true
	})

	// Bind every page to a fresh slot so the validating read path has a
	// location to fault on: the slot is unwritten, the read returns a
	// zero image that fails the in-page checks, and the failure routes
	// into single-page recovery against the entries prepared above.
	for _, id := range pm.Pages() {
		if _, _, _, err := pm.WriteTarget(id); err != nil {
			return nil, nil, rep, fmt.Errorf("recovery: binding slot for page %d: %w", id, err)
		}
		rep.PagesRestored++
	}
	return pm, pri, rep, nil
}
