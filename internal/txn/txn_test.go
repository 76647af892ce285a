package txn

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// recordingUndoer logs a CLR for every undone update and records the order.
type recordingUndoer struct {
	undone []page.LSN
	fail   error
}

func (u *recordingUndoer) Undo(t *Txn, rec *wal.Record) error {
	if u.fail != nil {
		return u.fail
	}
	u.undone = append(u.undone, rec.LSN)
	_, err := t.LogCLR(rec.PageID, page.ZeroLSN, nil, rec.PrevLSN)
	return err
}

func newManagers() (*wal.Manager, *Manager, *recordingUndoer) {
	log := wal.NewManager(iosim.Instant)
	m := NewManager(log)
	u := &recordingUndoer{}
	m.SetUndoer(u)
	return log, m, u
}

func TestUserCommitForcesLog(t *testing.T) {
	log, m, _ := newManagers()
	tx := m.Begin()
	if tx.System() {
		t.Fatal("Begin returned a system txn")
	}
	if _, err := tx.LogUpdate(1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if log.TailSize() != 0 {
		t.Error("user commit left volatile log tail")
	}
	if log.Stats().ForcedCommits != 1 {
		t.Errorf("forced commits = %d, want 1", log.Stats().ForcedCommits)
	}
	if tx.State() != Committed {
		t.Errorf("state = %v", tx.State())
	}
}

func TestSystemCommitDoesNotForce(t *testing.T) {
	log, m, _ := newManagers()
	st := m.BeginSystem()
	if !st.System() || !IsSystemID(st.ID()) {
		t.Fatal("BeginSystem did not mark the txn as system")
	}
	if _, err := st.LogUpdate(1, 0, []byte("split")); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if log.TailSize() == 0 {
		t.Error("system commit forced the log")
	}
	if log.Stats().ForcedCommits != 0 {
		t.Errorf("forced commits = %d, want 0", log.Stats().ForcedCommits)
	}
}

func TestSystemCommitDurableViaLaterUserCommit(t *testing.T) {
	log, m, _ := newManagers()
	st := m.BeginSystem()
	sysLSN, err := st.LogUpdate(1, 0, []byte("split"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	// "Their commit log records will be forced to stable storage prior to
	// (or with) the commit log record of any dependent user transactions."
	ut := m.Begin()
	if _, err := ut.LogUpdate(1, sysLSN, []byte("insert")); err != nil {
		t.Fatal(err)
	}
	if err := ut.Commit(); err != nil {
		t.Fatal(err)
	}
	log.Crash()
	if _, err := wal.TakeOver(log).Read(sysLSN); err != nil {
		t.Errorf("system txn record lost despite later user commit: %v", err)
	}
}

func TestPerTransactionChain(t *testing.T) {
	log, m, _ := newManagers()
	tx := m.Begin()
	var lsns []page.LSN
	for i := 0; i < 5; i++ {
		lsn, err := tx.LogUpdate(page.ID(i+1), 0, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	// Walk the chain backwards.
	got := []page.LSN{}
	lsn := tx.LastLSN()
	for lsn != page.ZeroLSN {
		rec, err := log.Read(lsn)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec.LSN)
		lsn = rec.PrevLSN
	}
	if len(got) != 5 {
		t.Fatalf("chain length %d, want 5", len(got))
	}
	for i := range got {
		if got[i] != lsns[4-i] {
			t.Errorf("chain[%d] = %d, want %d", i, got[i], lsns[4-i])
		}
	}
}

func TestAbortUndoesInReverseOrder(t *testing.T) {
	_, m, u := newManagers()
	tx := m.Begin()
	var lsns []page.LSN
	for i := 0; i < 4; i++ {
		lsn, err := tx.LogUpdate(7, 0, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 4 {
		t.Fatalf("undone %d records, want 4", len(u.undone))
	}
	for i := range u.undone {
		if u.undone[i] != lsns[3-i] {
			t.Errorf("undo[%d] = %d, want %d (reverse order)", i, u.undone[i], lsns[3-i])
		}
	}
	if tx.State() != Aborted {
		t.Errorf("state = %v", tx.State())
	}
	s := m.Stats()
	if s.UserAborted != 1 || s.UndoneUpdates != 4 || s.CLRsLogged != 4 {
		t.Errorf("stats = %+v", s)
	}
}

func TestAbortEmptyTransaction(t *testing.T) {
	_, m, u := newManagers()
	tx := m.Begin()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 0 {
		t.Error("empty txn undid something")
	}
}

func TestAbortWithoutUndoerFails(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	m := NewManager(log)
	tx := m.Begin()
	if _, err := tx.LogUpdate(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNoUndoer) {
		t.Errorf("abort without undoer: %v", err)
	}
}

func TestAbortPropagatesUndoError(t *testing.T) {
	_, m, u := newManagers()
	u.fail = errors.New("page latch timeout")
	tx := m.Begin()
	if _, err := tx.LogUpdate(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err == nil {
		t.Error("abort swallowed undo failure")
	}
}

func TestOperationsOnFinishedTxnFail(t *testing.T) {
	_, m, _ := newManagers()
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.LogUpdate(1, 0, nil); !errors.Is(err, ErrNotActive) {
		t.Errorf("log after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Errorf("abort after commit: %v", err)
	}
	if _, err := tx.LogCLR(1, 0, nil, 0); !errors.Is(err, ErrNotActive) {
		t.Errorf("CLR after commit: %v", err)
	}
}

func TestActiveTableTracksTransactions(t *testing.T) {
	_, m, _ := newManagers()
	t1 := m.Begin()
	t2 := m.Begin()
	st := m.BeginSystem()
	if m.ActiveCount() != 3 {
		t.Fatalf("active = %d, want 3", m.ActiveCount())
	}
	att := m.Active()
	if len(att) != 3 {
		t.Fatalf("ATT = %v", att)
	}
	sysSeen := false
	for _, e := range att {
		if e.System {
			sysSeen = true
		}
	}
	if !sysSeen {
		t.Error("system txn missing from ATT")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCount() != 0 {
		t.Errorf("active = %d after all ended", m.ActiveCount())
	}
}

func TestAdoptLoserAndRollback(t *testing.T) {
	log, m, u := newManagers()
	// Simulate a crashed transaction: records exist, txn object does not.
	tx := m.Begin()
	l1, _ := tx.LogUpdate(3, 0, []byte("a"))
	l2, _ := tx.LogUpdate(3, l1, []byte("b"))
	log.FlushAll()
	// "Crash": forget the txn, then adopt it as a loser.
	loser := m.AdoptLoser(tx.ID(), l2)
	if err := loser.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 2 || u.undone[0] != l2 || u.undone[1] != l1 {
		t.Errorf("undone = %v, want [%d %d]", u.undone, l2, l1)
	}
}

func TestRollbackSkipsCLRSpans(t *testing.T) {
	// A transaction that crashed mid-rollback: its chain is u1,u2,u3,
	// clr(u3). Resuming the rollback must undo only u2 and u1.
	log, m, u := newManagers()
	tx := m.Begin()
	l1, _ := tx.LogUpdate(3, 0, []byte("1"))
	l2, _ := tx.LogUpdate(3, l1, []byte("2"))
	l3, _ := tx.LogUpdate(3, l2, []byte("3"))
	// Hand-craft the partial rollback: CLR for l3 with UndoNext = l2.
	clr, err := tx.LogCLR(3, 0, nil, l2)
	if err != nil {
		t.Fatal(err)
	}
	log.FlushAll()
	loser := m.AdoptLoser(tx.ID(), clr)
	if err := loser.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 2 || u.undone[0] != l2 || u.undone[1] != l1 {
		t.Errorf("undone = %v, want [%d %d] (l3 already compensated)", u.undone, l2, l1)
	}
	_ = l3
}

func TestStatsSeparateUserAndSystem(t *testing.T) {
	_, m, _ := newManagers()
	for i := 0; i < 3; i++ {
		tx := m.Begin()
		if _, err := tx.LogUpdate(1, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		st := m.BeginSystem()
		if _, err := st.LogUpdate(2, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.UserBegun != 3 || s.UserCommitted != 3 || s.SysBegun != 5 || s.SysCommitted != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.UpdatesLogged != 8 {
		t.Errorf("updates logged = %d, want 8", s.UpdatesLogged)
	}
}

func TestStateString(t *testing.T) {
	for s := Active; s <= Aborted+1; s++ {
		if s.String() == "" {
			t.Errorf("empty name for state %d", s)
		}
	}
}

func TestAdoptLoserAdvancesNextID(t *testing.T) {
	_, m, _ := newManagers()
	m.AdoptLoser(100, 0)
	tx := m.Begin()
	if tx.ID() <= 100 {
		t.Errorf("new txn id %d collides with adopted id space", tx.ID())
	}
}

// TestCommitRecordAppendAcrossCrashIsCommitLost: a crash between a
// transaction's last update and its commit record seals the log. The
// commit record is appended to the failed incarnation's log, which nothing
// makes stable any more, so the commit is definitively lost, no force is
// spent on it, and the error says so to a caller matching wal.ErrCommitLost.
func TestCommitRecordAppendAcrossCrashIsCommitLost(t *testing.T) {
	log, m, _ := newManagers()
	tx := m.Begin()
	if _, err := tx.LogUpdate(1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	log.Crash()
	err := tx.Commit()
	if !errors.Is(err, wal.ErrCommitLost) {
		t.Fatalf("commit across a crash = %v, want wal.ErrCommitLost", err)
	}
	if tx.State() != Active {
		t.Errorf("state = %v, want the loser left active for restart", tx.State())
	}
	if got := log.Stats().ForcedCommits; got != 0 {
		t.Errorf("forced commits = %d for a commit record that was never laid", got)
	}
}

// TestActiveExcludesTransactionsWithAnEndRecord: a checkpoint's ATT must
// never list a transaction whose commit or abort record is already in the
// log — analysis starts at the checkpoint's begin record, would not meet
// that record again, and would undo an acknowledged commit. Committers and
// aborters run beside a reader of Active(); the last record of every row it
// returns must not be an end record.
func TestActiveExcludesTransactionsWithAnEndRecord(t *testing.T) {
	log, m, _ := newManagers()
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				begin := m.Begin
				if w == 3 && i%2 == 0 {
					begin = m.BeginSystem
				}
				tx := begin()
				if _, err := tx.LogUpdate(page.ID(w+1), 0, []byte("x")); err != nil {
					t.Error(err)
					return
				}
				end := tx.Commit
				if w == 2 {
					end = tx.Abort
				}
				if err := end(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	rows := 0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		for _, e := range m.Active() {
			if e.LastLSN == page.ZeroLSN {
				continue
			}
			rec, err := log.Read(e.LastLSN)
			if err != nil {
				t.Fatalf("txn %d: reading its last record %d: %v", e.ID, e.LastLSN, err)
			}
			switch rec.Type {
			case wal.TypeCommit, wal.TypeSysCommit, wal.TypeAbort:
				t.Fatalf("txn %d is in the ATT with its %v record already laid at %d", e.ID, rec.Type, e.LastLSN)
			}
			rows++
		}
	}
	stop.Store(true)
	wg.Wait()
	if rows == 0 {
		t.Fatal("the reader never saw an active transaction with a record")
	}
	if n := m.ActiveCount(); n != 0 {
		t.Errorf("%d transactions left in the table after all ended", n)
	}
}

// TestGhostHeldUntilTheTransactionEnds: a key a user transaction's delete
// left a ghost reads as held, to any transaction, until the last
// transaction holding it lays its end record, commit or abort alike.
func TestGhostHeldUntilTheTransactionEnds(t *testing.T) {
	_, m, _ := newManagers()
	a, b := m.Begin(), m.Begin()
	a.HoldGhost([]byte("k"))
	b.HoldGhost([]byte("k"))
	a.HoldGhost([]byte("j"))
	st := m.BeginSystem()
	if !st.GhostHeld([]byte("k")) || !st.GhostHeld([]byte("j")) || st.GhostHeld([]byte("x")) {
		t.Fatal("held keys not reported, or an unheld one reported")
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if !st.GhostHeld([]byte("k")) || st.GhostHeld([]byte("j")) {
		t.Fatal("after the first holder's commit: k must stay held by the second, j must not")
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if st.GhostHeld([]byte("k")) {
		t.Fatal("k still held after its last holder aborted")
	}
}
