package backup

import (
	"bytes"
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

// TestFetchWrongPageID: a set slot that holds another page's image — a
// misdirected write on the backup device — is refused, not served.
func TestFetchWrongPageID(t *testing.T) {
	s := newStore(t, 16)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	set := fullSet(t, s, 7, 8, "x")
	if err := s.Device().Write(s.sets[set][7], testPage(t, 8, 1, "x").Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FetchBackup(setRef(set), 7); !errors.Is(err, ErrBadSlot) {
		t.Errorf("wrong page fetch: %v", err)
	}
}

// durable stands for a log force that succeeds.
func durable() error { return nil }

// setRef names a set as the page recovery index would.
func setRef(id uint64) core.BackupRef { return core.BackupRef{Kind: core.BackupFull, Loc: id} }

// TestSweepFreesNothingWhenTheForceFails: a sweep whose log force fails
// frees nothing — the index it was handed may not be the one a restart
// rebuilds.
func TestSweepFreesNothingWhenTheForceFails(t *testing.T) {
	s := newStore(t, 4)
	old := fullSet(t, s, 1, 1, "old")
	fullSet(t, s, 1, 1, "new")
	sealed := errors.New("log sealed")
	if err := s.Sweep(nil, func() error { return sealed }); !errors.Is(err, sealed) {
		t.Fatalf("sweep over a failed force: %v", err)
	}
	if got := s.Sets(); len(got) != 2 || got[0] != old {
		t.Errorf("sets after a failed sweep = %v, want both", got)
	}
	if n := s.Device().WrittenSlots(); n != 2 {
		t.Errorf("%d slots hold an image after a failed sweep, want 2", n)
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
	probe := func() error {
		w := s.BeginFullSet(1)
		defer w.Abort()
		return w.Add(testPage(t, 9, 1, "y"))
	}
	if err := probe(); err == nil {
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
	if err := probe(); err != nil {
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

// TestSweepKeepsOpenSets: the slots of a set being written are roots
// however the index reads; once the set is abandoned, they go.
func TestSweepKeepsOpenSets(t *testing.T) {
	s := newStore(t, 8)
	w := s.BeginFullSet(1)
	for i := 1; i <= 2; i++ {
		if err := w.Add(testPage(t, page.ID(i), 1, "open")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sweep(nil, durable); err != nil {
		t.Fatal(err)
	}
	if n := s.Device().WrittenSlots(); n != 2 {
		t.Errorf("%d slots hold an image, want the open set's 2", n)
	}
	w.Abort()
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
	ref := core.BackupRef{Kind: core.BackupLog, Loc: uint64(lsn), AsOf: lsn}
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

// TestImageRecordBackup: a page copy logged as one image record names
// itself as the page's backup and reads back whole — type, flags, payload
// and the PageLSN it was taken at, below the record's own LSN.
func TestImageRecordBackup(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	r := &Resolver{Store: newStore(t, 4), Log: log, PageSize: 512}
	log.Append(&wal.Record{Type: wal.TypeCommit, Txn: 1}) // the copy is not the log's first record
	pg := testPage(t, 7, 42, "backup me")
	pg.SetType(page.TypeHash)
	pg.SetFlags(0x5)
	rec := ImageRecord(pg)
	lsn := log.Append(rec)
	ref, err := ImageRef(rec)
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.BackupRef{Kind: core.BackupLog, Loc: uint64(lsn), AsOf: 42}); ref != want {
		t.Fatalf("ref = %+v, want %+v", ref, want)
	}
	if rec.Txn != 0 || rec.PagePrevLSN != 0 {
		t.Errorf("image record joins transaction %d and chain %d; want neither", rec.Txn, rec.PagePrevLSN)
	}
	got, err := r.FetchBackup(ref, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), pg.Encode()) {
		t.Errorf("fetched %v %#x %q@%d, want %v %#x %q@%d", got.Type(), got.Flags(), got.Payload(), got.LSN(),
			pg.Type(), pg.Flags(), pg.Payload(), pg.LSN())
	}
}

// TestImageRecordRejectsMalformedPayloads: the image decoder refuses a
// payload that is cut short or whose used length disagrees with what
// follows it.
func TestImageRecordRejectsMalformedPayloads(t *testing.T) {
	good := ImageRecord(testPage(t, 7, 42, "abc")).Payload
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"no page type", good[:imagePrefix]},
		{"truncated payload", good[:len(good)-1]},
		{"length mismatch", append(append([]byte(nil), good...), 'd')},
	} {
		rec := &wal.Record{Type: wal.TypeImage, LSN: 100, PageID: 7, Payload: tc.payload}
		if _, err := PageFromLogRecord(rec, 512); !errors.Is(err, ErrBadFormatRec) {
			t.Errorf("%s: %v, want ErrBadFormatRec", tc.name, err)
		}
	}
}

// TestFetchBackupRejectsAMismatchedImage: a log-held backup reference is
// served only by the record it names holding an image of the asked page as
// of the reference's LSN.
func TestFetchBackupRejectsAMismatchedImage(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	r := &Resolver{Store: newStore(t, 4), Log: log, PageSize: 512}
	rec := ImageRecord(testPage(t, 7, 16, "copy"))
	lsn := log.Append(rec)
	commit := log.Append(&wal.Record{Type: wal.TypeCommit, Txn: 1})
	format := log.Append(&wal.Record{Type: wal.TypeFormat, Txn: 1, PageID: 7, Payload: FormatPayload(page.TypeRaw, nil)})
	for _, tc := range []struct {
		name string
		ref  core.BackupRef
		page page.ID
	}{
		{"image of another page", core.BackupRef{Kind: core.BackupLog, Loc: uint64(lsn), AsOf: 16}, 8},
		{"image not as of AsOf", core.BackupRef{Kind: core.BackupLog, Loc: uint64(lsn), AsOf: 17}, 7},
		{"format record not as of AsOf", core.BackupRef{Kind: core.BackupLog, Loc: uint64(format), AsOf: 16}, 7},
		{"format record of another page", core.BackupRef{Kind: core.BackupLog, Loc: uint64(format), AsOf: format}, 8},
		{"record holding no image", core.BackupRef{Kind: core.BackupLog, Loc: uint64(commit), AsOf: commit}, 0},
	} {
		if pg, err := r.FetchBackup(tc.ref, tc.page); !errors.Is(err, ErrBadFormatRec) {
			t.Errorf("%s: %v, %v; want ErrBadFormatRec", tc.name, pg, err)
		}
	}
	if _, err := r.FetchBackup(core.BackupRef{Kind: core.BackupLog, Loc: uint64(lsn), AsOf: 16}, 7); err != nil {
		t.Errorf("the image itself: %v", err)
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
	if _, err := PageFromLogRecord(rec, 512); !errors.Is(err, ErrBadFormatRec) {
		t.Errorf("wrong record type: %v", err)
	}
}

func TestResolverRejectsUnknownKind(t *testing.T) {
	s := newStore(t, 4)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	if _, err := r.FetchBackup(core.BackupRef{Kind: core.BackupNone}, 1); !errors.Is(err, ErrWrongKind) {
		t.Errorf("BackupNone: %v", err)
	}
	if _, err := r.FetchBackup(core.BackupRef{Kind: core.BackupLog + 1, Loc: 1}, 1); !errors.Is(err, ErrWrongKind) {
		t.Errorf("kind %d: %v", core.BackupLog+1, err)
	}
}

func TestBackupDeviceFaultSurfaces(t *testing.T) {
	s := newStore(t, 8)
	r := &Resolver{Store: s, Log: wal.NewManager(iosim.Instant), PageSize: 512}
	set := fullSet(t, s, 3, 3, "fragile")
	s.Device().InjectFault(s.sets[set][3], storage.FaultSilentCorruption, true)
	if _, err := r.FetchBackup(setRef(set), 3); !errors.Is(err, ErrBadSlot) {
		t.Errorf("corrupt backup fetch: %v", err)
	}
}
