package recovery

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/backup"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/txn"
	"repro/internal/wal"
)

// AnalysisResult is the outcome of the log-analysis pass (Fig. 12, first
// two rows): the losers, the recovery requirements (dirty page table), and
// the reconstructed page recovery index and page map. It is the one source
// of a page's recovery target: a page whose last write completed has it in
// PRI (LastLSN), a page still in the recovery requirements has it in Heads.
type AnalysisResult struct {
	// CheckpointLSN is the end record of the checkpoint the analysis
	// started from (ZeroLSN when the log has no completed checkpoint).
	CheckpointLSN page.LSN
	// Losers maps in-flight user transactions to the head of their chains.
	Losers map[wal.TxnID]page.LSN
	// Dropped maps each system transaction the crash cut (no end record)
	// to its update and CLR records: being contents-neutral (§5.1.5), it is
	// dropped, not undone. It held the latches of the pages it changed
	// until its commit, so on each page its records are the chain's tail
	// and no image holding them reached the device (buffer.Pool) or a
	// completed checkpoint (DirtyPages waits for the latch). They leave the
	// recovery requirements, each page whose head is one goes back to the
	// PagePrevLSN of the first, and redo skips them; its format records
	// stay, leaving orphan pages.
	Dropped map[wal.TxnID][]page.LSN
	// DPT maps pages that may need redo to their RecLSN, a lower bound on
	// their earliest required LSN.
	DPT map[page.ID]page.LSN
	// Heads maps every DPT page to its chain head: the newest update, CLR
	// or format record the log holds for it — the LSN the page must reach.
	Heads map[page.ID]page.LSN
	// PRI and Map are rebuilt from the checkpoint snapshots plus the
	// PRI update records that followed.
	PRI *core.PRI
	Map *pagemap.Map
	// RecordsScanned counts log records visited (analysis reads only the
	// log, no data pages — §5.1.2).
	RecordsScanned int
}

// Analyze runs the log-analysis pass from the most recent checkpoint's
// begin record (see Checkpoint for why the begin record, and what the
// snapshots guarantee below it). It reads only the log. slotCount sizes the
// reconstructed page map.
func Analyze(log *wal.Manager, slotCount int) (*AnalysisResult, error) {
	res := &AnalysisResult{
		Losers:  make(map[wal.TxnID]page.LSN),
		Dropped: make(map[wal.TxnID][]page.LSN),
		DPT:     make(map[page.ID]page.LSN),
		Heads:   make(map[page.ID]page.LSN),
		PRI:     core.NewPRI(),
		Map:     pagemap.New(slotCount),
	}
	start := wal.FirstLSN()

	// recLSN holds a lower bound on each dirty page's first unwritten
	// chain record: the first chain record after its last write-complete,
	// or that write-complete's PageLSN + 1. A write-complete at or above
	// the page's head takes it out. heads tracks each page's newest chain
	// record.
	recLSN := make(map[page.ID]page.LSN)
	heads := make(map[page.ID]page.LSN)
	chained := func(id page.ID, lsn page.LSN) {
		if _, dirty := recLSN[id]; !dirty {
			recLSN[id] = lsn
		}
		heads[id] = lsn
	}
	// sys holds the headers of each unended system transaction's updates.
	sys := make(map[wal.TxnID][]wal.Record)

	if master := log.Master(); master != page.ZeroLSN {
		rec, err := log.Read(master)
		if err != nil {
			return nil, fmt.Errorf("recovery: reading checkpoint at %d: %w", master, err)
		}
		if rec.Type != wal.TypeCheckpointEnd {
			return nil, fmt.Errorf("recovery: master LSN %d is %v, not a checkpoint end", master, rec.Type)
		}
		ck, err := decodeCheckpoint(rec.Payload)
		if err != nil {
			return nil, err
		}
		for _, e := range ck.att {
			res.Losers[e.ID] = e.LastLSN
		}
		for _, e := range ck.dpt {
			// A frame born dirty whose format record was not logged yet
			// has no RecLSN: the record, if it was ever laid, lies above
			// the begin LSN and the scan meets it.
			if e.RecLSN != page.ZeroLSN {
				recLSN[e.Page] = e.RecLSN
				heads[e.Page] = e.PageLSN
			}
		}
		pri, err := core.RestorePRI(ck.pri)
		if err != nil {
			return nil, err
		}
		res.PRI = pri
		pm, err := pagemap.Restore(ck.pmap, slotCount)
		if err != nil {
			return nil, err
		}
		res.Map = pm
		res.CheckpointLSN = master
		start = ck.begin
	}

	err := log.Scan(start, func(rec *wal.Record) bool {
		res.RecordsScanned++
		switch rec.Type {
		case wal.TypeUpdate, wal.TypeCLR:
			res.Losers[rec.Txn] = rec.LSN
			if rec.PageID != page.InvalidID {
				chained(rec.PageID, rec.LSN)
			}
			if txn.IsSystemID(rec.Txn) {
				sys[rec.Txn] = append(sys[rec.Txn], wal.Record{LSN: rec.LSN, PageID: rec.PageID, PagePrevLSN: rec.PagePrevLSN})
			}
		case wal.TypeFormat:
			res.Losers[rec.Txn] = rec.LSN
			res.Map.AdoptFresh(rec.PageID)
			chained(rec.PageID, rec.LSN)
			// A format record is self-registering: it is the page's
			// backup until something better comes along (§5.2.1).
			res.PRI.Set(rec.PageID, core.Entry{
				Backup:  core.BackupRef{Kind: core.BackupLog, Loc: uint64(rec.LSN), AsOf: rec.LSN},
				LastLSN: rec.LSN,
			})
		case wal.TypeImage:
			// So is a page copy; it changes no page, so it joins no chain
			// and dirties nothing. A malformed one leaves the page on the
			// backup it had.
			if ref, err := backup.ImageRef(rec); err == nil {
				res.PRI.SetBackup(rec.PageID, ref)
			}
		case wal.TypeCommit, wal.TypeSysCommit, wal.TypeAbort:
			delete(res.Losers, rec.Txn)
			delete(sys, rec.Txn)
		case wal.TypePRIUpdate:
			// Fig. 12 row 2: "Remove the data page from the recovery
			// requirements; add the page in the page recovery index."
			if op, _ := core.DecodePRIOp(rec.Payload); op == core.PRIOpWriteComplete {
				if wc, err := core.DecodeWriteComplete(rec.Payload); err == nil {
					if r, dirty := recLSN[rec.PageID]; dirty && wc.PageLSN >= heads[rec.PageID] {
						delete(recLSN, rec.PageID)
					} else if dirty {
						recLSN[rec.PageID] = max(r, wc.PageLSN+1)
					}
				}
			}
			// A malformed PRI record is not fatal to analysis; the page
			// will simply be re-read during redo.
			_ = core.ApplyPRIRecord(res.PRI, res.Map, rec)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for id := range res.Losers {
		if !txn.IsSystemID(id) {
			continue
		}
		delete(res.Losers, id)
		res.Dropped[id] = nil
		for _, r := range slices.Backward(sys[id]) { // newest first: back along each page's chain
			res.Dropped[id] = append(res.Dropped[id], r.LSN)
			if heads[r.PageID] == r.LSN {
				heads[r.PageID] = r.PagePrevLSN
			}
			// A page whose head fell below its RecLSN has nothing unwritten
			// left.
			if l, dirty := recLSN[r.PageID]; dirty && heads[r.PageID] < l {
				delete(recLSN, r.PageID)
			}
		}
	}

	for p, l := range recLSN {
		res.DPT[p] = l
		res.Heads[p] = heads[p]
	}
	return res, nil
}

// RedoPage is one page of a recovery's backlog: its image on the device,
// if it has one, may be missing the tail of its per-page chain.
type RedoPage struct {
	ID page.ID
	// Cost is the log span the replay covers, from the page's first
	// unwritten record to the LSN it must reach: the scheduler's estimate
	// (shorter spans first).
	Cost int64
}

// PrepReport quantifies an instant-restart preparation.
type PrepReport struct {
	// PagesMarked counts pages in the recovery requirements. No page image
	// is touched here; each page's missing chain tail is replayed on
	// demand (foreground faults first) and in the background.
	PagesMarked int
}

// PrepareRedo reshapes the redo pass the way PrepareMedia reshapes media
// recovery (instant restore, Sauer et al.): instead of a forward log scan
// that reads and replays every dirty page before the first transaction
// can run, preparation is O(active pages). For every page in the
// recovery requirements it raises the analysed page recovery index's
// expectation to the page's analysed chain head, so the first validating
// read of a stale on-disk image fails the PageLSN cross-check and routes
// into single-page recovery, exactly as a lost write would — and, as for a
// lost write, the stale image is that recovery's base. A page that never
// reached the device stays without a slot: its read goes straight to
// recovery from the format record that analysis or the checkpoint's index
// snapshot registered as its backup.
//
// The caller owns scheduling: it enqueues each returned page's repair with
// the background scheduler; a foreground fetch replays the page itself and
// pays only its own chain (spf.DB.Restart).
func PrepareRedo(a *AnalysisResult) ([]RedoPage, *PrepReport) {
	rep := &PrepReport{PagesMarked: len(a.DPT)}
	backlog := make([]RedoPage, 0, len(a.DPT))
	for id, recLSN := range a.DPT {
		head := a.Heads[id]
		if _, err := a.PRI.SetLastLSN(id, head); err != nil {
			// No backup is known for the page; the expectation alone still
			// makes a stale image fail its read instead of serving it, and
			// that image is then all recovery has to build on.
			a.PRI.Set(id, core.Entry{LastLSN: head})
		}
		backlog = append(backlog, RedoPage{ID: id, Cost: int64(head - recLSN)})
	}
	return backlog, rep
}

// RedoDeps is what the redo pass needs.
type RedoDeps struct {
	Log      *wal.Manager
	Pool     *buffer.Pool
	Map      *pagemap.Map
	PRI      *core.PRI
	Applier  core.RedoApplier
	PageSize int
	// LogPRIRepair, when non-nil, is called for pages found already
	// up-to-date on disk whose PRI update was lost in the crash (Fig. 12
	// redo row: "otherwise, create a log record for the page recovery
	// index"). The engine supplies a function that logs the repair
	// record under a system transaction.
	LogPRIRepair func(pageID page.ID, pageLSN page.LSN)
}

// RedoReport quantifies a redo pass — experiment E4 compares PagesRead
// with and without the completed-write optimization.
type RedoReport struct {
	RecordsApplied int
	PagesRead      int
	PRIRepairs     int
}

// Redo replays history forward from the earliest recovery requirement
// ("redo is physical", §5.1.2). For every update record whose page is in
// the DPT at or above its recLSN, the page is read (once) and the record
// applied exactly when the PageLSN shows it missing, with the per-page
// chain as a defensive cross-check (§5.1.4). The records of a dropped
// system transaction are skipped.
func Redo(d RedoDeps, a *AnalysisResult) (*RedoReport, error) {
	rep := &RedoReport{}
	if len(a.DPT) == 0 {
		return rep, nil
	}

	start := slices.Min(slices.Collect(maps.Values(a.DPT)))
	seen := make(map[page.ID]bool)
	var redoErr error
	scanErr := d.Log.Scan(start, func(rec *wal.Record) bool {
		switch rec.Type {
		case wal.TypeUpdate, wal.TypeCLR, wal.TypeFormat:
		default:
			return true
		}
		recLSN, inDPT := a.DPT[rec.PageID]
		if !inDPT || rec.LSN < recLSN || slices.Contains(a.Dropped[rec.Txn], rec.LSN) {
			return true
		}
		h, err := fetchForRedo(d, rec)
		if err != nil {
			redoErr = err
			return false
		}
		if h == nil {
			return true // nothing to do for this record
		}
		if !seen[rec.PageID] {
			seen[rec.PageID] = true
			rep.PagesRead++
		}
		defer h.Release()
		h.Lock()
		defer h.Unlock()
		pg := h.Page()
		if pg.LSN() >= rec.LSN {
			// The page already reflects the record: it was written
			// before the crash but the PRI update was lost. Repair
			// the index now (Fig. 12, redo row, second half).
			if cur, err := d.PRI.Get(rec.PageID); err != nil || cur.LastLSN < pg.LSN() {
				if _, err := d.PRI.SetLastLSN(rec.PageID, pg.LSN()); err != nil {
					d.PRI.Set(rec.PageID, core.Entry{LastLSN: pg.LSN()})
				}
				if d.LogPRIRepair != nil {
					d.LogPRIRepair(rec.PageID, pg.LSN())
				}
				rep.PRIRepairs++
			}
			return true
		}
		if rec.Type == wal.TypeFormat {
			fresh, err := backup.PageFromLogRecord(rec, d.PageSize)
			if err != nil {
				redoErr = err
				return false
			}
			if err := pg.SetPayload(fresh.Payload()); err != nil {
				redoErr = err
				return false
			}
			pg.SetType(fresh.Type())
		} else {
			// Defensive per-page chain check (§5.1.4): the record's
			// predecessor must be exactly the state on the page.
			if rec.PagePrevLSN != pg.LSN() {
				redoErr = fmt.Errorf("recovery: redo of LSN %d on page %d out of sequence: record expects PageLSN %d, page has %d",
					rec.LSN, rec.PageID, rec.PagePrevLSN, pg.LSN())
				return false
			}
			if err := d.Applier.ApplyRedo(rec, pg); err != nil {
				redoErr = fmt.Errorf("recovery: redo of LSN %d on page %d: %w", rec.LSN, rec.PageID, err)
				return false
			}
		}
		pg.SetLSN(rec.LSN)
		h.MarkDirty(rec.LSN)
		rep.RecordsApplied++
		return true
	})
	if redoErr != nil {
		return rep, redoErr
	}
	return rep, scanErr
}

// fetchForRedo pins the page a redo record targets, creating it fresh for
// format records of never-written pages.
func fetchForRedo(d RedoDeps, rec *wal.Record) (*buffer.Handle, error) {
	h, err := d.Pool.Fetch(rec.PageID)
	if err == nil {
		return h, nil
	}
	if errors.Is(err, buffer.ErrNeverWritten) || errors.Is(err, buffer.ErrUnknownPage) {
		// The page never reached the database; only a format record
		// can recreate it. Updates to it will follow the format record
		// in the scan.
		if rec.Type != wal.TypeFormat {
			return nil, fmt.Errorf("recovery: redo of LSN %d targets unwritten page %d with no format record first",
				rec.LSN, rec.PageID)
		}
		d.Map.AdoptFresh(rec.PageID)
		return d.Pool.Create(rec.PageID, page.TypeRaw)
	}
	return nil, err
}

// UndoReport quantifies the undo pass.
type UndoReport struct {
	// LosersRolledBack counts the user transactions rolled back.
	LosersRolledBack int
}

// Undo rolls back every loser user transaction through the transaction
// manager's registered Undoer (logical compensation), in descending order
// of their final LSNs as ARIES prescribes. A dropped system transaction is
// not undone and gets no end record: Undo reserves its ID instead, so that
// no later end record under the same ID can claim its records.
func Undo(txns *txn.Manager, a *AnalysisResult) (*UndoReport, error) {
	rep := &UndoReport{}
	for id := range a.Dropped {
		txns.Reserve(id)
	}
	losers := slices.SortedFunc(maps.Keys(a.Losers), func(x, y wal.TxnID) int {
		return cmp.Compare(a.Losers[y], a.Losers[x])
	})
	for _, id := range losers {
		if err := txns.AdoptLoser(id, a.Losers[id]).Abort(); err != nil {
			return rep, fmt.Errorf("recovery: rolling back loser %d: %w", id, err)
		}
		rep.LosersRolledBack++
	}
	return rep, nil
}
