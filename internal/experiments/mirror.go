package experiments

import (
	"errors"
	"fmt"

	"repro/internal/backup"
	"repro/internal/btree"
	"repro/internal/page"
	"repro/internal/wal"
)

// mirror is the one pre-existing automatic page repair scheme the paper
// identifies (§2): SQL Server database mirroring, kept here as E15's
// baseline. A full copy of the database is kept current by shipping the
// recovery log and applying the *entire* stream to the mirror; when a page
// in the primary fails, it is replaced by the corresponding page from the
// mirror once the mirror has caught up with the whole log.
//
// The paper's criticism, which E15 quantifies: "the recovery log is applied
// to the entire mirror database, not just the individual page that requires
// repair, and the recovery process completely fails to exploit the per-page
// log chain already present in the ... recovery log."
type mirror struct {
	log      *wal.Manager
	pageSize int
	images   map[page.ID]*page.Page
	applied  page.LSN
	// recordsApplied counts the log records replayed into the mirror.
	recordsApplied int64
}

// errNotMirrored reports a repair request for a page the mirror has never
// seen.
var errNotMirrored = errors.New("mirror: page not present in mirror")

// newMirror creates an empty mirror attached to the primary's log.
func newMirror(log *wal.Manager, pageSize int) *mirror {
	return &mirror{
		log:      log,
		pageSize: pageSize,
		images:   make(map[page.ID]*page.Page),
		applied:  wal.FirstLSN(),
	}
}

// catchUp applies every stable log record the mirror has not seen yet —
// the whole stream, every page, regardless of which page might need repair
// later. Returns the number of log bytes processed.
func (m *mirror) catchUp() (int64, error) {
	var bytesApplied int64
	var applyErr error
	flushed := m.log.FlushedLSN()
	err := m.log.Scan(m.applied, func(rec *wal.Record) bool {
		if rec.LSN >= flushed {
			return false // only the stable prefix ships
		}
		size := int64(wal.RecordSize(rec))
		m.applied = rec.LSN + page.LSN(size)
		bytesApplied += size
		switch rec.Type {
		case wal.TypeFormat:
			pg, err := backup.PageFromLogRecord(rec, m.pageSize)
			if err != nil {
				applyErr = err
				return false
			}
			m.images[rec.PageID] = pg
			m.recordsApplied++
		case wal.TypeUpdate, wal.TypeCLR:
			pg, ok := m.images[rec.PageID]
			if !ok || rec.PageID == page.InvalidID {
				return true
			}
			if pg.LSN() >= rec.LSN {
				return true
			}
			if rec.PagePrevLSN != pg.LSN() {
				applyErr = fmt.Errorf(
					"mirror: log stream out of sequence for page %d at LSN %d", rec.PageID, rec.LSN)
				return false
			}
			if err := (btree.Applier{}).ApplyRedo(rec, pg); err != nil {
				applyErr = fmt.Errorf("mirror: applying LSN %d: %w", rec.LSN, err)
				return false
			}
			pg.SetLSN(rec.LSN)
			m.recordsApplied++
		}
		return true
	})
	if applyErr != nil {
		return bytesApplied, applyErr
	}
	return bytesApplied, err
}

// repairPage implements the mirroring repair protocol: the mirror first
// applies the entire outstanding log stream, then hands over its copy of
// the failed page. The returned byte count is the log volume processed to
// serve this one repair — compare with the per-page chain walk of
// single-page recovery.
func (m *mirror) repairPage(id page.ID) (*page.Page, int64, error) {
	bytesApplied, err := m.catchUp()
	if err != nil {
		return nil, bytesApplied, err
	}
	pg, ok := m.images[id]
	if !ok {
		return nil, bytesApplied, fmt.Errorf("%w: %d", errNotMirrored, id)
	}
	return pg.Clone(), bytesApplied, nil
}
