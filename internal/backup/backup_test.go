package backup

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/wal"
)

func newStore(t *testing.T, slots int) *Store {
	t.Helper()
	dev := storage.NewDevice(storage.Config{PageSize: 512, Slots: slots, Profile: iosim.Instant})
	return NewStore(dev)
}

func testPage(t *testing.T, id page.ID, lsn page.LSN, payload string) *page.Page {
	t.Helper()
	pg := page.New(id, page.TypeRaw, 512)
	if err := pg.SetPayload([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	pg.SetLSN(lsn)
	return pg
}

func TestPutPageAndFetch(t *testing.T) {
	s := newStore(t, 16)
	log := wal.NewManager(iosim.Instant)
	r := &Resolver{Store: s, Log: log, PageSize: 512}
	pg := testPage(t, 7, 42, "backup me")
	ref, err := s.PutPage(pg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Kind != core.BackupPage || ref.AsOf != 42 {
		t.Errorf("ref = %+v", ref)
	}
	got, err := r.FetchBackup(ref, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload()) != "backup me" || got.LSN() != 42 {
		t.Errorf("fetched %q lsn=%d", got.Payload(), got.LSN())
	}
}

func TestFetchWrongPageID(t *testing.T) {
	s := newStore(t, 16)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	ref, err := s.PutPage(testPage(t, 7, 1, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.FetchBackup(ref, 8); !errors.Is(err, ErrBadSlot) {
		t.Errorf("wrong page fetch: %v", err)
	}
}

// durable stands for a log force that succeeds.
func durable() error { return nil }

// setRef names a set as the page recovery index would.
func setRef(id uint64) core.BackupRef { return core.BackupRef{Kind: core.BackupFull, Loc: id} }

// TestSweepReusesUnnamedCopySlots: an installed copy the index no longer
// names is discarded by the sweep and its slot reused; the named one stays.
func TestSweepReusesUnnamedCopySlots(t *testing.T) {
	s := newStore(t, 2)
	ref1, err := s.PutPage(testPage(t, 1, 1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := s.PutPage(testPage(t, 1, 2, "b"))
	if err != nil {
		t.Fatal(err)
	}
	// Store full now.
	if _, err := s.PutPage(testPage(t, 3, 1, "c")); err == nil {
		t.Fatal("overfull store accepted page")
	}
	s.Installed(ref1)
	s.Installed(ref2)
	if err := s.Sweep([]core.BackupRef{ref2}, durable); err != nil {
		t.Fatal(err)
	}
	// A free slot holds no image while it waits for reuse.
	if n := s.Device().WrittenSlots(); n != 1 {
		t.Errorf("%d slots hold an image after the sweep, want 1", n)
	}
	if got, err := s.PutPage(testPage(t, 3, 1, "c")); err != nil || got.Loc != ref1.Loc {
		t.Errorf("free slot not reused: %+v, %v", got, err)
	}
}

// TestSweepFreesNothingWhenTheForceFails: a sweep whose log force fails
// frees nothing — the index it was handed may not be the one a restart
// rebuilds.
func TestSweepFreesNothingWhenTheForceFails(t *testing.T) {
	s := newStore(t, 4)
	ref, err := s.PutPage(testPage(t, 1, 1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	s.Installed(ref)
	sealed := errors.New("log sealed")
	if err := s.Sweep(nil, func() error { return sealed }); !errors.Is(err, sealed) {
		t.Fatalf("sweep over a failed force: %v", err)
	}
	if n := s.Device().WrittenSlots(); n != 1 {
		t.Errorf("%d slots hold an image after a failed sweep, want 1", n)
	}
}

func TestFullSetRoundTrip(t *testing.T) {
	s := newStore(t, 64)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	w := s.BeginFullSet(123)
	var want []*page.Page
	for i := 1; i <= 10; i++ {
		pg := testPage(t, page.ID(i), page.LSN(i*10), fmt.Sprintf("page-%d", i))
		want = append(want, pg)
		if err := w.Add(pg); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()
	ref := core.BackupRef{Kind: core.BackupFull, Loc: w.SetID()}
	for _, pg := range want {
		got, err := r.FetchBackup(ref, pg.ID())
		if err != nil {
			t.Fatalf("fetch page %d: %v", pg.ID(), err)
		}
		if string(got.Payload()) != string(pg.Payload()) || got.LSN() != pg.LSN() {
			t.Errorf("page %d mismatch", pg.ID())
		}
	}
	ids, err := s.SetPages(w.SetID())
	if err != nil || len(ids) != 10 {
		t.Errorf("SetPages = %v, %v", ids, err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("SetPages not sorted")
		}
	}
	if lsn, err := s.SetLSN(w.SetID()); err != nil || lsn != 123 {
		t.Errorf("SetLSN = %d, %v", lsn, err)
	}
	if s.LatestSet() != w.SetID() {
		t.Errorf("LatestSet = %d", s.LatestSet())
	}
}

func TestFetchFromUnknownSetAndMissingPage(t *testing.T) {
	s := newStore(t, 16)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	if _, err := r.FetchBackup(core.BackupRef{Kind: core.BackupFull, Loc: 99}, 1); !errors.Is(err, ErrUnknownSet) {
		t.Errorf("unknown set: %v", err)
	}
	w := s.BeginFullSet(1)
	if err := w.Add(testPage(t, 1, 1, "x")); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	if _, err := r.FetchBackup(core.BackupRef{Kind: core.BackupFull, Loc: w.SetID()}, 2); !errors.Is(err, ErrNotInSet) {
		t.Errorf("missing page: %v", err)
	}
}

// fullSet commits a set of pages lo..hi, each image carrying payload.
func fullSet(t *testing.T, s *Store, lo, hi int, payload string) uint64 {
	t.Helper()
	w := s.BeginFullSet(1)
	for i := lo; i <= hi; i++ {
		if err := w.Add(testPage(t, page.ID(i), 1, payload)); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()
	return w.SetID()
}

// TestSweepDiscardsUnreachableSets: a set neither named nor the newest is
// forgotten, and its slots are discarded and reused.
func TestSweepDiscardsUnreachableSets(t *testing.T) {
	s := newStore(t, 8)
	old := fullSet(t, s, 1, 4, "old")
	newest := fullSet(t, s, 1, 4, "new")
	if _, err := s.PutPage(testPage(t, 9, 1, "y")); err == nil {
		t.Fatal("store should be full")
	}
	if err := s.Sweep(nil, durable); err != nil {
		t.Fatal(err)
	}
	if got := s.Sets(); len(got) != 1 || got[0] != newest {
		t.Fatalf("Sets after the sweep = %v, want [%d]", got, newest)
	}
	if _, err := s.SetPages(old); !errors.Is(err, ErrUnknownSet) {
		t.Errorf("swept set still listed: %v", err)
	}
	if n := s.Device().WrittenSlots(); n != 4 {
		t.Errorf("%d slots hold an image after the sweep, want 4", n)
	}
	if _, err := s.PutPage(testPage(t, 9, 1, "y")); err != nil {
		t.Errorf("slots not freed: %v", err)
	}
}

// TestSweepKeepsTheNewestSet: media recovery restores from the newest set,
// so it survives a sweep whose index names none of it.
func TestSweepKeepsTheNewestSet(t *testing.T) {
	s := newStore(t, 8)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	set := fullSet(t, s, 1, 3, "kept")
	if err := s.Sweep(nil, durable); err != nil {
		t.Fatal(err)
	}
	if got := s.Sets(); len(got) != 1 || got[0] != set {
		t.Fatalf("Sets after the sweep = %v, want [%d]", got, set)
	}
	if n := s.Device().WrittenSlots(); n != 3 {
		t.Errorf("%d slots hold an image, want 3", n)
	}
	if got, err := r.FetchBackup(setRef(set), 2); err != nil || string(got.Payload()) != "kept" {
		t.Errorf("page 2 from the newest set: %v, %v", got, err)
	}
}

// TestSweepKeepsSharedSlots: an incremental set shares the unchanged
// images of its predecessor, and a shared slot survives while either set
// is reachable — the older one through the index, the newer one through
// the index or as the newest.
func TestSweepKeepsSharedSlots(t *testing.T) {
	s := newStore(t, 8)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	w1 := fullSet(t, s, 1, 3, "old")
	w2 := s.BeginFullSet(2)
	if err := w2.Add(testPage(t, 1, 2, "new")); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		if err := w2.AddShared(page.ID(i), w1); err != nil {
			t.Fatal(err)
		}
	}
	w2.Commit()
	// The index still names the older set, the newer is the newest: both
	// stay, and so do all four images.
	if err := s.Sweep([]core.BackupRef{setRef(w1)}, durable); err != nil {
		t.Fatal(err)
	}
	if got := s.Sets(); len(got) != 2 || got[0] != w1 || got[1] != w2.SetID() {
		t.Fatalf("Sets = %v", got)
	}
	if n := s.Device().WrittenSlots(); n != 4 {
		t.Errorf("%d slots hold an image, want 4", n)
	}
	// Once the index names the newer set, the older one goes: page 1's old
	// image is discarded, the two shared ones and the new one stay.
	if err := s.Sweep([]core.BackupRef{setRef(w2.SetID())}, durable); err != nil {
		t.Fatal(err)
	}
	if got := s.Sets(); len(got) != 1 || got[0] != w2.SetID() {
		t.Fatalf("Sets after the sweep = %v", got)
	}
	if n := s.Device().WrittenSlots(); n != 3 {
		t.Errorf("%d slots hold an image, want 3", n)
	}
	ref := setRef(w2.SetID())
	for i, want := range []string{"new", "old", "old"} {
		got, err := r.FetchBackup(ref, page.ID(i+1))
		if err != nil || string(got.Payload()) != want {
			t.Errorf("page %d from set %d: %v, %v", i+1, w2.SetID(), got, err)
		}
	}
}

// TestSweepKeepsOpenSetsAndUninstalledCopies: the slots of a set being
// written and a copy written but not installed are roots however the index
// reads; an installed copy the index does not name is not. Once the set is
// abandoned and the copy installed, both go.
func TestSweepKeepsOpenSetsAndUninstalledCopies(t *testing.T) {
	s := newStore(t, 8)
	w := s.BeginFullSet(1)
	for i := 1; i <= 2; i++ {
		if err := w.Add(testPage(t, page.ID(i), 1, "open")); err != nil {
			t.Fatal(err)
		}
	}
	pending, err := s.PutPage(testPage(t, 5, 1, "pending"))
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := s.PutPage(testPage(t, 6, 1, "dropped"))
	if err != nil {
		t.Fatal(err)
	}
	s.Installed(dropped)
	if err := s.Sweep(nil, durable); err != nil {
		t.Fatal(err)
	}
	if n := s.Device().WrittenSlots(); n != 3 {
		t.Errorf("%d slots hold an image, want the open set's 2 and the pending copy", n)
	}
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	if got, err := r.FetchBackup(pending, 5); err != nil || string(got.Payload()) != "pending" {
		t.Errorf("pending copy: %v, %v", got, err)
	}
	w.Abort()
	s.Installed(pending)
	if err := s.Sweep(nil, durable); err != nil {
		t.Fatal(err)
	}
	if n := s.Device().WrittenSlots(); n != 0 {
		t.Errorf("%d slots hold an image with no root left, want 0", n)
	}
}

// TestAbortFreesAnUncommittedSet: a backup that fails part-way gives back,
// at the next sweep, the images it wrote and leaves the ones it shared with
// their set.
func TestAbortFreesAnUncommittedSet(t *testing.T) {
	s := newStore(t, 8)
	w1 := s.BeginFullSet(1)
	if err := w1.Add(testPage(t, 1, 1, "keep")); err != nil {
		t.Fatal(err)
	}
	w1.Commit()
	w2 := s.BeginFullSet(2)
	if err := w2.Add(testPage(t, 2, 2, "drop")); err != nil {
		t.Fatal(err)
	}
	if err := w2.AddShared(1, w1.SetID()); err != nil {
		t.Fatal(err)
	}
	w2.Abort()
	if err := s.Sweep(nil, durable); err != nil {
		t.Fatal(err)
	}
	if got := s.Sets(); len(got) != 1 || got[0] != w1.SetID() {
		t.Fatalf("Sets after abort = %v", got)
	}
	if _, err := s.SetLSN(w2.SetID()); !errors.Is(err, ErrUnknownSet) {
		t.Errorf("aborted set still has an LSN: %v", err)
	}
	if n := s.Device().WrittenSlots(); n != 1 {
		t.Errorf("%d slots hold an image after abort, want 1", n)
	}
	if err := w2.Add(testPage(t, 3, 2, "late")); err == nil {
		t.Error("Add after Abort succeeded")
	}
	w1.Abort() // committed: no-op
	if got := s.Sets(); len(got) != 1 || got[0] != w1.SetID() {
		t.Fatalf("Sets after aborting a committed set = %v", got)
	}
}

func TestAddAfterCommitFails(t *testing.T) {
	s := newStore(t, 8)
	w := s.BeginFullSet(1)
	w.Commit()
	if err := w.Add(testPage(t, 1, 1, "x")); err == nil {
		t.Error("Add after Commit succeeded")
	}
}

func TestFormatRecordBackup(t *testing.T) {
	s := newStore(t, 8)
	log := wal.NewManager(iosim.Instant)
	r := &Resolver{Store: s, Log: log, PageSize: 512}
	payload := []byte("fresh node payload")
	lsn := log.Append(&wal.Record{
		Type: wal.TypeFormat, Txn: 1, PageID: 9,
		Payload: FormatPayload(page.TypeBTree, payload),
	})
	ref := core.BackupRef{Kind: core.BackupFormat, Loc: uint64(lsn), AsOf: lsn}
	got, err := r.FetchBackup(ref, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type() != page.TypeBTree || string(got.Payload()) != string(payload) {
		t.Errorf("reconstructed type=%v payload=%q", got.Type(), got.Payload())
	}
	if got.LSN() != lsn {
		t.Errorf("reconstructed LSN = %d, want %d (the format record itself)", got.LSN(), lsn)
	}
}

func TestFormatPayloadCodec(t *testing.T) {
	enc := FormatPayload(page.TypePRI, []byte("abc"))
	typ, payload, err := DecodeFormatPayload(enc)
	if err != nil || typ != page.TypePRI || string(payload) != "abc" {
		t.Errorf("decode = %v %q %v", typ, payload, err)
	}
	if _, _, err := DecodeFormatPayload([]byte{1, 2}); !errors.Is(err, ErrBadFormatRec) {
		t.Errorf("short payload: %v", err)
	}
	bad := FormatPayload(page.TypeRaw, []byte("abc"))
	bad = bad[:len(bad)-1]
	if _, _, err := DecodeFormatPayload(bad); !errors.Is(err, ErrBadFormatRec) {
		t.Errorf("truncated payload: %v", err)
	}
}

func TestPageFromFormatRecordRejectsWrongType(t *testing.T) {
	rec := &wal.Record{Type: wal.TypeCommit}
	if _, err := PageFromFormatRecord(rec, 512); !errors.Is(err, ErrBadFormatRec) {
		t.Errorf("wrong record type: %v", err)
	}
}

func TestResolverRejectsUnknownKind(t *testing.T) {
	s := newStore(t, 4)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	if _, err := r.FetchBackup(core.BackupRef{Kind: core.BackupNone}, 1); !errors.Is(err, ErrWrongKind) {
		t.Errorf("BackupNone: %v", err)
	}
	if _, err := r.FetchBackup(core.BackupRef{Kind: core.BackupFormat + 1, Loc: 1}, 1); !errors.Is(err, ErrWrongKind) {
		t.Errorf("kind %d: %v", core.BackupFormat+1, err)
	}
}

func TestBackupDeviceFaultSurfaces(t *testing.T) {
	s := newStore(t, 8)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	ref, err := s.PutPage(testPage(t, 3, 5, "fragile"))
	if err != nil {
		t.Fatal(err)
	}
	s.Device().InjectFault(storage.PhysID(ref.Loc), storage.FaultSilentCorruption, true)
	if _, err := r.FetchBackup(ref, 3); !errors.Is(err, ErrBadSlot) {
		t.Errorf("corrupt backup fetch: %v", err)
	}
}
