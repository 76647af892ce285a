// Package txn implements transactions: user transactions with forced-log
// commits and logical rollback, and the paper's system transactions
// (§5.1.5, Fig. 5) — cheap transactions for contents-neutral structural
// changes (node splits, ghost removal, page recovery index maintenance)
// that commit without forcing the log.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/page"
	"repro/internal/wal"
)

// systemBit marks system transaction IDs.
const systemBit wal.TxnID = 1 << 63

// State of a transaction.
type State int

const (
	// Active transactions may log updates.
	Active State = iota
	// Committed transactions are durable (user) or logged (system).
	Committed
	// Aborted transactions have been fully rolled back.
	Aborted
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors returned by transaction operations.
var (
	ErrNotActive = errors.New("txn: transaction not active")
	ErrNoUndoer  = errors.New("txn: no undo handler registered")
)

// Undoer performs the logical compensation for one user update record
// during rollback ("undo is logical, i.e., applies to the same key values",
// §5.1.2). Implementations must apply the inverse operation through the
// storage structure and log a CLR via Txn.LogCLR.
type Undoer interface {
	Undo(t *Txn, rec *wal.Record) error
}

// Stats counts transaction activity, separating user from system
// transactions so experiments can reproduce the Fig. 5 comparison.
type Stats struct {
	UserBegun     int64
	UserCommitted int64
	UserAborted   int64
	SysBegun      int64
	SysCommitted  int64
	SysAborted    int64
	UpdatesLogged int64
	CLRsLogged    int64
	UndoneUpdates int64
}

// Manager creates and tracks transactions. Safe for concurrent use.
type Manager struct {
	mu     sync.Mutex
	log    *wal.Manager
	nextID wal.TxnID
	active map[wal.TxnID]*Txn
	undoer Undoer
	stats  Stats
	// ghosts counts, per key, the active user transactions whose delete
	// left the key a ghost (HoldGhost): their rollback revives it.
	ghosts map[string]int
}

// NewManager creates a transaction manager on the given log.
func NewManager(log *wal.Manager) *Manager {
	return &Manager{
		log:    log,
		nextID: 1,
		active: make(map[wal.TxnID]*Txn),
		ghosts: make(map[string]int),
	}
}

// SetUndoer registers the logical-undo handler (the storage engine).
func (m *Manager) SetUndoer(u Undoer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.undoer = u
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Txn is a single transaction. A Txn is not safe for concurrent use by
// multiple goroutines (as in real engines, a transaction is a thread of
// control); the manager itself is.
type Txn struct {
	mgr    *Manager
	id     wal.TxnID
	system bool
	state  State
	// lastLSN is the head of the per-transaction chain. The owning
	// goroutine writes it on every record it logs while a concurrent
	// checkpoint reads it through Manager.Active, hence atomic.
	lastLSN atomic.Uint64
	// beginLSN is the log end when the transaction began: every record it
	// ever writes is at or above it. The archive release floor uses the
	// minimum over active transactions so undo chains stay readable.
	// Adopted losers carry ZeroLSN (their first record is unknown), which
	// conservatively blocks archive release while they roll back.
	beginLSN page.LSN
	// ended is set, under the manager's mutex, in the step that lays the
	// transaction's end record: from then on it is no row of the ATT. A
	// user commit or abort stays in the table until its force returns,
	// because until then a crash can still make it a loser whose undo the
	// archive release floor (OldestActiveBeginLSN) must keep readable.
	ended bool
	// saved lists, for a system transaction, each page it changed with what
	// puts back the copy taken before the first change (see Save); atEnd
	// runs once the end record is laid (see AtEnd).
	saved []savedPage
	atEnd []func()
	// ghosts lists the keys a user transaction's deletes left ghosts.
	ghosts []string
}

// savedPage is one page a system transaction changed.
type savedPage struct {
	id      page.ID
	restore func() error
}

// Begin starts a user transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{mgr: m, id: m.nextID, state: Active, beginLSN: m.log.EndLSN()}
	m.nextID++
	m.active[t.id] = t
	m.stats.UserBegun++
	return t
}

// BeginSystem starts a system transaction: logged under the same machinery
// but committed without forcing the log. "Since the system transaction is,
// by definition, contents-neutral, a lost system transaction cannot imply
// any data loss" (§5.1.5).
func (m *Manager) BeginSystem() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{mgr: m, id: m.nextID | systemBit, system: true, state: Active, beginLSN: m.log.EndLSN()}
	m.nextID++
	m.active[t.id] = t
	m.stats.SysBegun++
	return t
}

// IsSystemID reports whether a log-record transaction ID belongs to a
// system transaction.
func IsSystemID(id wal.TxnID) bool { return id&systemBit != 0 }

// ID returns the transaction's log identifier.
func (t *Txn) ID() wal.TxnID { return t.id }

// System reports whether this is a system transaction.
func (t *Txn) System() bool { return t.system }

// State returns the transaction state.
func (t *Txn) State() State { return t.state }

// LastLSN returns the most recent log record of this transaction (the head
// of its per-transaction chain).
func (t *Txn) LastLSN() page.LSN { return page.LSN(t.lastLSN.Load()) }

// Log appends a record on behalf of the transaction, linking it into the
// per-transaction chain. The caller fills PageID, PagePrevLSN, Type, and
// Payload; Txn and PrevLSN are set here. Returns the assigned LSN.
func (t *Txn) Log(rec *wal.Record) (page.LSN, error) {
	if t.state != Active {
		return 0, fmt.Errorf("%w: %v", ErrNotActive, t.state)
	}
	rec.Txn = t.id
	rec.PrevLSN = t.LastLSN()
	lsn := t.mgr.log.Append(rec)
	t.lastLSN.Store(uint64(lsn))
	if rec.Type == wal.TypeUpdate {
		t.mgr.mu.Lock()
		t.mgr.stats.UpdatesLogged++
		t.mgr.mu.Unlock()
	}
	return lsn, nil
}

// LogUpdate is a convenience wrapper for TypeUpdate records: it links both
// chains (per-transaction via Log, per-page via pagePrevLSN).
func (t *Txn) LogUpdate(pageID page.ID, pagePrevLSN page.LSN, payload []byte) (page.LSN, error) {
	return t.Log(&wal.Record{
		Type:        wal.TypeUpdate,
		PageID:      pageID,
		PagePrevLSN: pagePrevLSN,
		Payload:     payload,
	})
}

// Changed reports whether the system transaction has saved page id, that
// is, changed it already.
func (t *Txn) Changed(id page.ID) bool {
	for _, s := range t.saved {
		if s.id == id {
			return true
		}
	}
	return false
}

// Save registers restore as what puts page id back — as a whole-page CLR
// of a copy taken before the system transaction's first change to it,
// whose latch the caller holds until the transaction ends. A system
// transaction is redo-only: Abort puts copies back, newest first.
func (t *Txn) Save(id page.ID, restore func() error) {
	t.saved = append(t.saved, savedPage{id: id, restore: restore})
}

// HoldGhost records that the user transaction's delete left key a ghost.
// Until the transaction's end record is laid, its rollback may revive the
// ghost, so no system transaction may purge it (GhostHeld). Keys are held
// across all indexes alike: a held key only spares its ghosts elsewhere
// until the transaction ends.
func (t *Txn) HoldGhost(key []byte) {
	k := string(key)
	t.mgr.mu.Lock()
	t.mgr.ghosts[k]++
	t.mgr.mu.Unlock()
	t.ghosts = append(t.ghosts, k)
}

// GhostHeld reports whether an active user transaction — t or any other —
// holds the ghost of key (HoldGhost).
func (t *Txn) GhostHeld(key []byte) bool {
	t.mgr.mu.Lock()
	defer t.mgr.mu.Unlock()
	return t.mgr.ghosts[string(key)] > 0
}

// AtEnd registers fn to run once the transaction's end record is laid —
// commit or abort, newest first: how a caller holds a page latch until then.
func (t *Txn) AtEnd(fn func()) { t.atEnd = append(t.atEnd, fn) }

// finish runs the AtEnd functions.
func (t *Txn) finish() {
	for i := len(t.atEnd) - 1; i >= 0; i-- {
		t.atEnd[i]()
	}
	t.atEnd, t.saved = nil, nil
}

// LogCLR appends a compensation record during rollback. undoNext names the
// next record to undo (the PrevLSN of the record being compensated), so
// that a rollback interrupted by a crash resumes exactly where it stopped.
func (t *Txn) LogCLR(pageID page.ID, pagePrevLSN page.LSN, payload []byte, undoNext page.LSN) (page.LSN, error) {
	if t.state != Active {
		return 0, fmt.Errorf("%w: %v", ErrNotActive, t.state)
	}
	rec := &wal.Record{
		Type:        wal.TypeCLR,
		PageID:      pageID,
		PagePrevLSN: pagePrevLSN,
		UndoNext:    undoNext,
		Payload:     payload,
	}
	rec.Txn = t.id
	rec.PrevLSN = t.LastLSN()
	lsn := t.mgr.log.Append(rec)
	t.lastLSN.Store(uint64(lsn))
	t.mgr.mu.Lock()
	t.mgr.stats.CLRsLogged++
	t.mgr.mu.Unlock()
	return lsn, nil
}

// Commit ends the transaction. User transactions append a commit record
// and force the log (durability); system transactions append a sys-commit
// record and return immediately — their commit record reaches stable
// storage no later than the next user-transaction force (§5.1.5).
func (t *Txn) Commit() error {
	if t.state != Active {
		return fmt.Errorf("%w: %v", ErrNotActive, t.state)
	}
	typ := wal.TypeCommit
	if t.system {
		typ = wal.TypeSysCommit
		// Chaos point: a system transaction's changes are applied and its
		// commit record is not yet logged. A crash here cuts it, and
		// restart drops it (recovery.Analyze): sound because it still holds
		// the latch of every page it changed, so no image holding a change
		// of it reached the device (buffer.Pool's write-back).
		chaos.At("txn.syscommit")
	}
	lsn := t.end(typ)
	if !t.system {
		// The force coalesces with concurrent commits behind the log flush
		// in progress. A crash that sealed the log before the commit record
		// was stable surfaces here as wal.ErrCommitLost: the record is not in
		// the log restart takes over, so restart rolls the transaction back.
		if err := t.mgr.log.ForceForCommit(lsn); err != nil {
			return fmt.Errorf("txn %d commit not durable: %w", t.id, err)
		}
	}
	t.state = Committed
	t.finish()
	t.mgr.mu.Lock()
	delete(t.mgr.active, t.id)
	if t.system {
		t.mgr.stats.SysCommitted++
	} else {
		t.mgr.stats.UserCommitted++
	}
	t.mgr.mu.Unlock()
	return nil
}

// End ends the transaction by the outcome of its work: it commits when err
// is nil, and otherwise aborts and returns err. A system transaction ends
// so before it drops the latches of the pages it changed, which its abort
// puts back.
func (t *Txn) End(err error) error {
	if err == nil {
		return t.Commit()
	}
	_ = t.Abort()
	return err
}

// end lays the transaction's end record (commit, sys-commit or abort) and
// takes the transaction out of the ATT in one step under the manager's
// mutex. A checkpoint's Active() therefore never lists a transaction whose
// end record is already in the log: analysis starts at the checkpoint's
// begin record and would not meet that end record again, so it would roll
// an acknowledged commit back. The order is record first, mark second,
// inside one critical section — a mark set ahead of the append would hide a
// real loser if the crash fell between the two.
func (t *Txn) end(typ wal.RecType) page.LSN {
	t.mgr.mu.Lock()
	defer t.mgr.mu.Unlock()
	lsn := t.mgr.log.Append(&wal.Record{Type: typ, Txn: t.id, PrevLSN: t.LastLSN()})
	t.lastLSN.Store(uint64(lsn))
	t.ended = true
	// The ghosts it held may go: a purge logs behind this record, so a
	// crash that loses the record, making the transaction a loser whose
	// rollback revives them, loses the purge too.
	for _, k := range t.ghosts {
		if t.mgr.ghosts[k]--; t.mgr.ghosts[k] == 0 {
			delete(t.mgr.ghosts, k)
		}
	}
	t.ghosts = nil
	return lsn
}

// Abort rolls the transaction back and appends an abort record. A user
// transaction walks its per-transaction chain backwards, invoking the
// registered Undoer for every update record (which performs the logical
// compensation and logs a CLR), skipping over already-compensated spans via
// the CLRs' UndoNext pointers. A system transaction, still holding the
// latch of every page it changed, puts back the copies Save registered.
func (t *Txn) Abort() error {
	if t.state != Active {
		return fmt.Errorf("%w: %v", ErrNotActive, t.state)
	}
	if t.system {
		for i := len(t.saved) - 1; i >= 0; i-- {
			if err := t.saved[i].restore(); err != nil {
				return fmt.Errorf("txn %d restoring page %d: %w", t.id, t.saved[i].id, err)
			}
		}
	} else if err := t.rollback(); err != nil {
		return err
	}
	lsn := t.end(wal.TypeAbort)
	t.state = Aborted
	t.finish()
	if !t.system {
		// Like a commit, a user abort leaves the table once its record is
		// stable: until then a crash makes it a loser again, whose rollback
		// reads the records the archive release floor keeps.
		if err := t.mgr.log.Flush(lsn); err != nil {
			return fmt.Errorf("txn %d abort not durable: %w", t.id, err)
		}
	}
	t.mgr.mu.Lock()
	delete(t.mgr.active, t.id)
	if t.system {
		t.mgr.stats.SysAborted++
	} else {
		t.mgr.stats.UserAborted++
	}
	t.mgr.mu.Unlock()
	return nil
}

// rollback undoes every update of the transaction.
func (t *Txn) rollback() error {
	t.mgr.mu.Lock()
	undoer := t.mgr.undoer
	t.mgr.mu.Unlock()
	lsn := t.LastLSN()
	for lsn != page.ZeroLSN {
		rec, err := t.mgr.log.Read(lsn)
		if err != nil {
			return fmt.Errorf("txn %d rollback: %w", t.id, err)
		}
		switch rec.Type {
		case wal.TypeUpdate:
			if undoer == nil {
				return ErrNoUndoer
			}
			if err := undoer.Undo(t, rec); err != nil {
				return fmt.Errorf("txn %d undo of LSN %d: %w", t.id, lsn, err)
			}
			t.mgr.mu.Lock()
			t.mgr.stats.UndoneUpdates++
			t.mgr.mu.Unlock()
			lsn = rec.PrevLSN
		case wal.TypeCLR:
			// Skip the span this CLR already compensated.
			lsn = rec.UndoNext
		default:
			lsn = rec.PrevLSN
		}
	}
	return nil
}

// ActiveEntry is one row of the active transaction table (ATT) captured at
// a checkpoint.
type ActiveEntry struct {
	ID      wal.TxnID
	LastLSN page.LSN
	System  bool
}

// Active returns the current active transaction table sorted by ID: every
// transaction that has not laid its end record yet.
func (m *Manager) Active() []ActiveEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ActiveEntry, 0, len(m.active))
	for _, t := range m.active {
		if t.ended {
			continue
		}
		out = append(out, ActiveEntry{ID: t.id, LastLSN: t.LastLSN(), System: t.system})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AdoptLoser reconstructs an in-flight user transaction found during
// restart log analysis so that the undo pass can roll it back. The restored
// transaction is active with the given chain head, and its ID reserved.
func (m *Manager) AdoptLoser(id wal.TxnID, lastLSN page.LSN) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{mgr: m, id: id, system: IsSystemID(id), state: Active}
	t.lastLSN.Store(uint64(lastLSN))
	m.active[id] = t
	m.reserveLocked(id)
	return t
}

// Reserve makes sure no transaction begun from now on gets id: restart
// reserves the ID of a system transaction it dropped, which has no end
// record, so that no later end record under the same ID can claim its
// records.
func (m *Manager) Reserve(id wal.TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reserveLocked(id)
}

func (m *Manager) reserveLocked(id wal.TxnID) {
	if id&^systemBit >= m.nextID {
		m.nextID = (id &^ systemBit) + 1
	}
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// OldestActiveBeginLSN returns the smallest begin LSN over in-flight
// transactions, or ok=false when none are active. The log lifecycle uses
// it as an archive release floor: no active transaction's undo chain can
// reach below its begin LSN. Adopted losers report ZeroLSN (conservative:
// archive release waits until restart undo finishes them).
func (m *Manager) OldestActiveBeginLSN() (page.LSN, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var low page.LSN
	found := false
	for _, t := range m.active {
		if !found || t.beginLSN < low {
			low = t.beginLSN
			found = true
		}
	}
	return low, found
}
