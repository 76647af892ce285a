package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// rawApplier applies test log records whose payload is simply the page's
// new payload bytes.
type rawApplier struct{}

func (rawApplier) ApplyRedo(rec *wal.Record, pg *page.Page) error {
	return pg.SetPayload(rec.Payload)
}

// mapBackups is a BackupSource backed by a map.
type mapBackups struct {
	images map[uint64]*page.Page
}

func (b *mapBackups) FetchBackup(ref BackupRef, pageID page.ID) (*page.Page, error) {
	img, ok := b.images[ref.Loc]
	if !ok {
		return nil, fmt.Errorf("no backup at loc %d", ref.Loc)
	}
	if img.ID() != pageID {
		return nil, fmt.Errorf("backup holds page %d, want %d", img.ID(), pageID)
	}
	return img.Clone(), nil
}

// BackupLSN: a map image is as of the LSN it carries; its references say so.
func (b *mapBackups) BackupLSN(ref BackupRef, _ page.ID) page.LSN { return ref.AsOf }

// buildHistory creates a page, a backup of its state after backupAfter
// updates, and then further updates, returning everything a recoverer
// needs. Total updates = backupAfter + tailUpdates.
func buildHistory(t *testing.T, log *wal.Manager, pid page.ID, backupAfter, tailUpdates int) (*PRI, *mapBackups, *page.Page) {
	t.Helper()
	pg := page.New(pid, page.TypeRaw, 512)
	update := func(i int) {
		payload := []byte(fmt.Sprintf("state-%04d", i))
		lsn := log.Append(&wal.Record{
			Type: wal.TypeUpdate, Txn: 1, PageID: pid,
			PagePrevLSN: pg.LSN(), Payload: payload,
		})
		if err := pg.SetPayload(payload); err != nil {
			t.Fatal(err)
		}
		pg.SetLSN(lsn)
	}
	for i := 0; i < backupAfter; i++ {
		update(i)
	}
	backups := &mapBackups{images: map[uint64]*page.Page{100: pg.Clone()}}
	ref := BackupRef{Kind: BackupLog, Loc: 100, AsOf: pg.LSN()}
	for i := 0; i < tailUpdates; i++ {
		update(backupAfter + i)
	}
	pri := NewPRI()
	pri.Set(pid, Entry{Backup: ref, LastLSN: pg.LSN()})
	return pri, backups, pg
}

func TestRecoverPageReplaysChain(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri, backups, want := buildHistory(t, log, 7, 3, 10)
	r := NewRecoverer(log, pri, backups, rawApplier{})
	got, rep, err := r.RecoverPage(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN() != want.LSN() {
		t.Errorf("recovered LSN %d, want %d", got.LSN(), want.LSN())
	}
	if string(got.Payload()) != string(want.Payload()) {
		t.Errorf("recovered payload %q, want %q", got.Payload(), want.Payload())
	}
	if rep.RecordsApplied != 10 {
		t.Errorf("applied %d records, want 10 (updates since backup)", rep.RecordsApplied)
	}
	if rep.LogReads != 10 {
		t.Errorf("log reads = %d, want 10", rep.LogReads)
	}
	if rep.BackupKind != BackupLog {
		t.Errorf("backup kind = %v", rep.BackupKind)
	}
	s := r.Stats()
	if s.Recoveries != 1 || s.RecordsApplied != 10 || s.Escalations != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRecoverPageNoUpdatesSinceBackup(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri, backups, want := buildHistory(t, log, 7, 5, 0)
	r := NewRecoverer(log, pri, backups, rawApplier{})
	got, rep, err := r.RecoverPage(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsApplied != 0 {
		t.Errorf("applied %d, want 0 (backup is current)", rep.RecordsApplied)
	}
	if got.LSN() != want.LSN() {
		t.Errorf("LSN %d, want %d", got.LSN(), want.LSN())
	}
}

func TestRecoverPageEscalatesWithoutEntry(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	r := NewRecoverer(log, NewPRI(), &mapBackups{}, rawApplier{})
	_, _, err := r.RecoverPage(42, nil)
	if !errors.Is(err, ErrEscalate) {
		t.Fatalf("want ErrEscalate, got %v", err)
	}
	if r.Stats().Escalations != 1 {
		t.Error("escalation not counted")
	}
}

func TestRecoverPageEscalatesWithoutBackup(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri := NewPRI()
	pri.Set(5, Entry{Backup: BackupRef{Kind: BackupNone}, LastLSN: 10})
	r := NewRecoverer(log, pri, &mapBackups{}, rawApplier{})
	if _, _, err := r.RecoverPage(5, nil); !errors.Is(err, ErrEscalate) {
		t.Fatalf("want ErrEscalate, got %v", err)
	}
}

func TestRecoverPageEscalatesOnMissingBackupImage(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri := NewPRI()
	pri.Set(5, Entry{Backup: BackupRef{Kind: BackupLog, Loc: 1, AsOf: 10}, LastLSN: 10})
	r := NewRecoverer(log, pri, &mapBackups{images: map[uint64]*page.Page{}}, rawApplier{})
	if _, _, err := r.RecoverPage(5, nil); !errors.Is(err, ErrEscalate) {
		t.Fatalf("want ErrEscalate, got %v", err)
	}
}

// supersedingBackups fails the first fetch the way a freed backup does,
// after doing what the backup that freed it did: taking a newer copy and
// pointing the index at it.
type supersedingBackups struct {
	mapBackups
	pri     *PRI
	pid     page.ID
	newer   *page.Page
	fetches int
}

func (b *supersedingBackups) FetchBackup(ref BackupRef, pageID page.ID) (*page.Page, error) {
	if b.fetches++; b.fetches == 1 {
		delete(b.images, ref.Loc)
		b.images[200] = b.newer
		b.pri.SetBackup(b.pid, BackupRef{Kind: BackupLog, Loc: 200, AsOf: b.newer.LSN()})
	}
	return b.mapBackups.FetchBackup(ref, pageID)
}

// TestRecoverPageResolvesAgainWhenBackupSuperseded: a backup freed between
// the index lookup and the fetch is not a failed backup — the index
// already names its replacement, and recovery resolves against that.
func TestRecoverPageResolvesAgainWhenBackupSuperseded(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri, backups, want := buildHistory(t, log, 7, 2, 3)
	b := &supersedingBackups{mapBackups: *backups, pri: pri, pid: 7, newer: want.Clone()}
	r := NewRecoverer(log, pri, b, rawApplier{})
	got, rep, err := r.RecoverPage(7, nil)
	if err != nil {
		t.Fatalf("recovery across a superseded backup: %v", err)
	}
	if string(got.Payload()) != string(want.Payload()) || got.LSN() != want.LSN() {
		t.Errorf("recovered %q@%d, want %q@%d", got.Payload(), got.LSN(), want.Payload(), want.LSN())
	}
	// The newer copy is current: nothing to replay on top of it.
	if b.fetches != 2 || rep.RecordsApplied != 0 || r.Stats().Escalations != 0 {
		t.Errorf("fetches %d, records applied %d, escalations %d; want 2, 0, 0",
			b.fetches, rep.RecordsApplied, r.Stats().Escalations)
	}
}

// overtakingBackups serves the first fetch and is then overtaken the way a
// full backup overtakes a slow repair: the index names a newer image, and
// the log below that image is recycled before the replay walks it.
type overtakingBackups struct {
	mapBackups
	pri     *PRI
	log     *wal.Manager
	pid     page.ID
	newer   *page.Page
	fetches int
}

func (b *overtakingBackups) FetchBackup(ref BackupRef, pageID page.ID) (*page.Page, error) {
	img, err := b.mapBackups.FetchBackup(ref, pageID)
	if b.fetches++; b.fetches == 1 {
		b.images[200] = b.newer
		b.pri.SetBackup(b.pid, BackupRef{Kind: BackupLog, Loc: 200, AsOf: b.newer.LSN()})
		b.log.FlushAll()
		b.log.Recycle(b.newer.LSN())
	}
	return img, err
}

// TestRecoverPageResolvesAgainWhenHistoryRecycled: a replay whose chain was
// recycled under it because a newer backup superseded its base is not a
// failed recovery — the index names the newer backup, and recovery
// resolves against that.
func TestRecoverPageResolvesAgainWhenHistoryRecycled(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri, backups, want := buildHistory(t, log, 7, 2, 5)
	b := &overtakingBackups{mapBackups: *backups, pri: pri, log: log, pid: 7, newer: want.Clone()}
	r := NewRecoverer(log, pri, b, rawApplier{})
	got, rep, err := r.RecoverPage(7, nil)
	if err != nil {
		t.Fatalf("recovery across a recycled chain: %v", err)
	}
	if string(got.Payload()) != string(want.Payload()) || got.LSN() != want.LSN() {
		t.Errorf("recovered %q@%d, want %q@%d", got.Payload(), got.LSN(), want.Payload(), want.LSN())
	}
	if b.fetches != 2 || rep.RecordsApplied != 0 || r.Stats().Escalations != 0 {
		t.Errorf("fetches %d, records applied %d, escalations %d; want 2, 0, 0",
			b.fetches, rep.RecordsApplied, r.Stats().Escalations)
	}
}

func TestRecoverPageEscalatesOnStaleBackupLSN(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pg := page.New(5, page.TypeRaw, 512)
	pg.SetLSN(99) // does not match ref.AsOf below
	pri := NewPRI()
	pri.Set(5, Entry{Backup: BackupRef{Kind: BackupLog, Loc: 1, AsOf: 10}, LastLSN: 99})
	r := NewRecoverer(log, pri, &mapBackups{images: map[uint64]*page.Page{1: pg}}, rawApplier{})
	if _, _, err := r.RecoverPage(5, nil); !errors.Is(err, ErrEscalate) {
		t.Fatalf("want ErrEscalate, got %v", err)
	}
}

func TestRecoverPageEscalatesOnBrokenChain(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri, backups, _ := buildHistory(t, log, 7, 2, 3)
	// Corrupt the PRI's LastLSN to point at a record of another page.
	noise := log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 9, PageID: 999})
	if _, err := pri.SetLastLSN(7, noise); err != nil {
		t.Fatal(err)
	}
	r := NewRecoverer(log, pri, backups, rawApplier{})
	if _, _, err := r.RecoverPage(7, nil); !errors.Is(err, ErrEscalate) {
		t.Fatalf("want ErrEscalate, got %v", err)
	}
}

func TestRecoverPageDefensiveSequenceCheck(t *testing.T) {
	// Build a chain whose PagePrevLSN pointers skip a record: the §5.1.4
	// defensive check must refuse to apply out-of-sequence redo.
	log := wal.NewManager(iosim.Instant)
	const pid page.ID = 3
	pg := page.New(pid, page.TypeRaw, 512)
	backups := &mapBackups{images: map[uint64]*page.Page{1: pg.Clone()}}
	ref := BackupRef{Kind: BackupLog, Loc: 1, AsOf: pg.LSN()}
	l1 := log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: pid, PagePrevLSN: pg.LSN(), Payload: []byte("a")})
	// Second record lies about its predecessor (claims l1+1000).
	l2 := log.Append(&wal.Record{Type: wal.TypeUpdate, Txn: 1, PageID: pid, PagePrevLSN: l1 + 1000, Payload: []byte("b")})
	_ = l1
	pri := NewPRI()
	pri.Set(pid, Entry{Backup: ref, LastLSN: l2})
	r := NewRecoverer(log, pri, backups, rawApplier{})
	_, _, err := r.RecoverPage(pid, nil)
	if !errors.Is(err, ErrEscalate) {
		t.Fatalf("out-of-sequence chain not detected: %v", err)
	}
}

func TestRecoverPageSimulatedIOCharged(t *testing.T) {
	log := wal.NewManager(iosim.HDD)
	pri, backups, _ := buildHistory(t, log, 7, 1, 24)
	r := NewRecoverer(log, pri, backups, rawApplier{})
	_, rep, err := r.RecoverPage(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ~24 random log reads on an 8 ms disk: on the order of 0.2 s —
	// "dozens of I/Os ... perhaps 1 s" (§6).
	if rep.SimulatedIO <= 0 {
		t.Error("no simulated I/O charged")
	}
	if rep.SimulatedIO.Seconds() > 2 {
		t.Errorf("simulated I/O %v exceeds the paper's ~1 s expectation", rep.SimulatedIO)
	}
}

func TestRecoverLongChain(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri, backups, want := buildHistory(t, log, 7, 0, 500)
	r := NewRecoverer(log, pri, backups, rawApplier{})
	got, rep, err := r.RecoverPage(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsApplied != 500 {
		t.Errorf("applied %d, want 500", rep.RecordsApplied)
	}
	if string(got.Payload()) != string(want.Payload()) {
		t.Error("long-chain recovery produced wrong contents")
	}
}

// haveAt rebuilds the page of buildHistory's chain as it stood after n
// updates: a true older version, what a stale slot would hand to recovery.
func haveAt(t *testing.T, log *wal.Manager, pid page.ID, n int) *page.Page {
	t.Helper()
	pg := page.New(pid, page.TypeRaw, 512)
	err := log.Scan(wal.FirstLSN(), func(rec *wal.Record) bool {
		if rec.PageID != pid || n == 0 {
			return n > 0
		}
		if err := pg.SetPayload(rec.Payload); err != nil {
			t.Fatal(err)
		}
		pg.SetLSN(rec.LSN)
		n--
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// countingBackups counts the fetches of the backup image.
type countingBackups struct {
	*mapBackups
	fetches int
}

func (b *countingBackups) FetchBackup(ref BackupRef, pageID page.ID) (*page.Page, error) {
	b.fetches++
	return b.mapBackups.FetchBackup(ref, pageID)
}

// TestRecoverPageBaseImageRule: which image a replay starts from. The
// history is 4 updates, a backup, 6 more updates; have is the page as of
// some update, or something that only looks like it.
func TestRecoverPageBaseImageRule(t *testing.T) {
	const pid page.ID = 7
	for _, tc := range []struct {
		name string
		// have builds the offered image; the backup is as of update 4.
		have     func(t *testing.T, log *wal.Manager) *page.Page
		noBackup bool
		// want: whether have is the base, the records the replay applies,
		// the log records read on top of those, whether the backup image
		// is read, whether a rejection is counted.
		own        bool
		applied    int
		extraReads int64
		fetches    int
		rejected   int64
	}{
		{name: "newer than the backup and on the chain: used, only the missing records replayed",
			have: func(t *testing.T, log *wal.Manager) *page.Page { return haveAt(t, log, pid, 7) },
			own:  true, applied: 3},
		{name: "as old as the backup: used",
			have: func(t *testing.T, log *wal.Manager) *page.Page { return haveAt(t, log, pid, 4) },
			own:  true, applied: 6},
		{name: "older than the backup: backup used, nothing walked below it",
			have:    func(t *testing.T, log *wal.Manager) *page.Page { return haveAt(t, log, pid, 2) },
			applied: 6, fetches: 1, rejected: 1},
		{name: "off the chain: rejected, backup used, no escalation",
			have: func(t *testing.T, log *wal.Manager) *page.Page {
				pg := haveAt(t, log, pid, 7)
				pg.SetLSN(pg.LSN() + 1) // between two records: no version of the page
				return pg
			},
			applied: 6, extraReads: 3, fetches: 1, rejected: 1},
		{name: "current already: not stale, backup used",
			have:    func(t *testing.T, log *wal.Manager) *page.Page { return haveAt(t, log, pid, 10) },
			applied: 6, fetches: 1, rejected: 1},
		{name: "entry without a backup: used",
			have:     func(t *testing.T, log *wal.Manager) *page.Page { return haveAt(t, log, pid, 2) },
			noBackup: true, own: true, applied: 8},
		{name: "nothing offered: backup used",
			have:    func(*testing.T, *wal.Manager) *page.Page { return nil },
			applied: 6, fetches: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := wal.NewManager(iosim.Instant)
			pri, mb, want := buildHistory(t, log, pid, 4, 6)
			if tc.noBackup {
				pri.Set(pid, Entry{LastLSN: want.LSN()})
			}
			backups := &countingBackups{mapBackups: mb}
			r := NewRecoverer(log, pri, backups, rawApplier{})
			have := tc.have(t, log)
			readsBefore := log.Stats().RecordsRead
			got, rep, err := r.RecoverPage(pid, have)
			if err != nil {
				t.Fatal(err)
			}
			if got.LSN() != want.LSN() || string(got.Payload()) != string(want.Payload()) {
				t.Errorf("recovered %q@%d, want %q@%d", got.Payload(), got.LSN(), want.Payload(), want.LSN())
			}
			if rep.OwnImage != tc.own || (got == have) != tc.own {
				t.Errorf("own image used: report %v, page identity %v, want %v", rep.OwnImage, got == have, tc.own)
			}
			if tc.own && rep.BackupKind != BackupNone || !tc.own && rep.BackupKind != BackupLog {
				t.Errorf("backup kind %v with own image %v", rep.BackupKind, tc.own)
			}
			if rep.RecordsApplied != tc.applied || backups.fetches != tc.fetches {
				t.Errorf("applied %d records over %d backup fetches, want %d over %d",
					rep.RecordsApplied, backups.fetches, tc.applied, tc.fetches)
			}
			// Only an off-chain image costs log reads of its own: the walk
			// from the head down to it. One older than the backup is turned
			// down on its LSN, before anything below the backup is read.
			if reads := log.Stats().RecordsRead - readsBefore; reads != int64(tc.applied)+tc.extraReads {
				t.Errorf("%d log records read for a %d-record replay, want %d more", reads, tc.applied, tc.extraReads)
			}
			s := r.Stats()
			want1 := int64(0)
			if tc.own {
				want1 = 1
			}
			if s.Recoveries != 1 || s.Escalations != 0 || s.OwnImage != want1 || s.OwnImageRejected != tc.rejected {
				t.Errorf("stats = %+v, want one recovery, no escalation, own image %d, rejected %d", s, want1, tc.rejected)
			}
		})
	}
}

// TestRecoverPageOwnImageRejectedThenBackupFails: rejecting the offered
// image is not an escalation, failing from the backup afterwards is — one.
func TestRecoverPageOwnImageRejectedThenBackupFails(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	pri, backups, _ := buildHistory(t, log, 7, 4, 6)
	have := haveAt(t, log, 7, 7)
	have.SetLSN(have.LSN() + 1)
	delete(backups.images, 100)
	r := NewRecoverer(log, pri, backups, rawApplier{})
	if _, _, err := r.RecoverPage(7, have); !errors.Is(err, ErrEscalate) {
		t.Fatalf("want ErrEscalate, got %v", err)
	}
	if s := r.Stats(); s.Escalations != 1 || s.Recoveries != 0 {
		t.Errorf("stats = %+v", s)
	}
}
