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

func TestFreeSlotReuse(t *testing.T) {
	s := newStore(t, 2)
	ref1, err := s.PutPage(testPage(t, 1, 1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPage(testPage(t, 2, 1, "b")); err != nil {
		t.Fatal(err)
	}
	// Store full now.
	if _, err := s.PutPage(testPage(t, 3, 1, "c")); err == nil {
		t.Fatal("overfull store accepted page")
	}
	s.FreeSlot(ref1.Loc)
	// A free slot holds no image while it waits for reuse.
	if n := s.Device().WrittenSlots(); n != 1 {
		t.Errorf("%d slots hold an image after FreeSlot, want 1", n)
	}
	if _, err := s.PutPage(testPage(t, 3, 1, "c")); err != nil {
		t.Errorf("free slot not reused: %v", err)
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

func TestDropSetFreesSlots(t *testing.T) {
	s := newStore(t, 4)
	w := s.BeginFullSet(1)
	for i := 1; i <= 4; i++ {
		if err := w.Add(testPage(t, page.ID(i), 1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()
	if _, err := s.PutPage(testPage(t, 9, 1, "y")); err == nil {
		t.Fatal("store should be full")
	}
	if err := s.DropSet(w.SetID()); err != nil {
		t.Fatal(err)
	}
	if n := s.Device().WrittenSlots(); n != 0 {
		t.Errorf("%d slots hold an image after DropSet, want 0", n)
	}
	if _, err := s.PutPage(testPage(t, 9, 1, "y")); err != nil {
		t.Errorf("slots not freed: %v", err)
	}
	if err := s.DropSet(w.SetID()); !errors.Is(err, ErrUnknownSet) {
		t.Errorf("double drop: %v", err)
	}
}

// TestDropSetKeepsSharedSlots: an incremental set shares the unchanged
// images of its predecessor, and dropping the predecessor frees and
// discards only what the newer set does not name.
func TestDropSetKeepsSharedSlots(t *testing.T) {
	s := newStore(t, 8)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	w1 := s.BeginFullSet(1)
	for i := 1; i <= 3; i++ {
		if err := w1.Add(testPage(t, page.ID(i), 1, "old")); err != nil {
			t.Fatal(err)
		}
	}
	w1.Commit()
	w2 := s.BeginFullSet(2)
	if err := w2.Add(testPage(t, 1, 2, "new")); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		if err := w2.AddShared(page.ID(i), w1.SetID()); err != nil {
			t.Fatal(err)
		}
	}
	w2.Commit()
	if got := s.Sets(); len(got) != 2 || got[0] != w1.SetID() || got[1] != w2.SetID() {
		t.Fatalf("Sets = %v", got)
	}
	if err := s.DropSet(w1.SetID()); err != nil {
		t.Fatal(err)
	}
	if got := s.Sets(); len(got) != 1 || got[0] != w2.SetID() {
		t.Fatalf("Sets after drop = %v", got)
	}
	// Page 1's old image is gone; the two shared ones and the new one stay.
	if n := s.Device().WrittenSlots(); n != 3 {
		t.Errorf("%d slots hold an image, want 3", n)
	}
	ref := core.BackupRef{Kind: core.BackupFull, Loc: w2.SetID()}
	for i, want := range []string{"new", "old", "old"} {
		got, err := r.FetchBackup(ref, page.ID(i+1))
		if err != nil || string(got.Payload()) != want {
			t.Errorf("page %d from set %d: %v, %v", i+1, w2.SetID(), got, err)
		}
	}
}

// TestAbortFreesAnUncommittedSet: a backup that fails part-way gives back
// the images it wrote and leaves the ones it shared with their set.
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
	if err := s.DropSet(w1.SetID()); err != nil {
		t.Fatal(err)
	}
	if n := s.Device().WrittenSlots(); n != 0 {
		t.Errorf("%d slots hold an image at the end, want 0", n)
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
