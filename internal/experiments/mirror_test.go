package experiments

import (
	"errors"
	"testing"

	"repro/internal/backup"
	"repro/internal/btree"
	"repro/internal/iosim"
	"repro/internal/page"
	"repro/internal/wal"
)

// logRawUpdate appends a raw-page update keeping the caller's shadow page
// in sync.
func logRawUpdate(log *wal.Manager, pg *page.Page, newPayload []byte) {
	op := btree.EncodeRawSet(newPayload, append([]byte(nil), pg.Payload()...))
	lsn := log.Append(&wal.Record{
		Type: wal.TypeUpdate, Txn: 1, PageID: pg.ID(),
		PagePrevLSN: pg.LSN(), Payload: op,
	})
	if err := pg.SetPayload(newPayload); err != nil {
		panic(err)
	}
	pg.SetLSN(lsn)
}

func formatRaw(log *wal.Manager, id page.ID, pageSize int) *page.Page {
	pg := page.New(id, page.TypeRaw, pageSize)
	lsn := log.Append(&wal.Record{
		Type: wal.TypeFormat, Txn: 1, PageID: id,
		Payload: backup.FormatPayload(page.TypeRaw, nil),
	})
	pg.SetLSN(lsn)
	return pg
}

func TestMirrorTracksPrimary(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	m := newMirror(log, 512)
	p1 := formatRaw(log, 1, 512)
	p2 := formatRaw(log, 2, 512)
	logRawUpdate(log, p1, []byte("one"))
	logRawUpdate(log, p2, []byte("two"))
	logRawUpdate(log, p1, []byte("one-b"))
	log.FlushAll()
	if _, err := m.catchUp(); err != nil {
		t.Fatal(err)
	}
	got, _, err := m.repairPage(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload()) != "one-b" || got.LSN() != p1.LSN() {
		t.Errorf("mirror copy = %q @ %d, want %q @ %d", got.Payload(), got.LSN(), "one-b", p1.LSN())
	}
}

func TestRepairProcessesWholeStream(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	m := newMirror(log, 512)
	victim := formatRaw(log, 1, 512)
	logRawUpdate(log, victim, []byte("v1"))
	// Lots of unrelated traffic on other pages.
	others := make([]*page.Page, 50)
	for i := range others {
		others[i] = formatRaw(log, page.ID(i+10), 512)
	}
	for round := 0; round < 20; round++ {
		for _, pg := range others {
			logRawUpdate(log, pg, []byte{byte(round)})
		}
	}
	log.FlushAll()
	_, bytesApplied, err := m.repairPage(1)
	if err != nil {
		t.Fatal(err)
	}
	// The mirror had to chew through the ENTIRE stream (1000+ unrelated
	// records) to repair one page — the paper's criticism.
	if bytesApplied < int64(50*20*40) {
		t.Errorf("repair processed only %d bytes; expected the whole stream", bytesApplied)
	}
	// 1 + 50 format records, 1 + 50*20 updates: the counter E15 reports.
	if m.recordsApplied != 1052 {
		t.Errorf("records applied = %d, want 1052", m.recordsApplied)
	}
}

func TestMirrorOnlySeesStablePrefix(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	m := newMirror(log, 512)
	pg := formatRaw(log, 1, 512)
	logRawUpdate(log, pg, []byte("stable"))
	log.FlushAll()
	logRawUpdate(log, pg, []byte("volatile"))
	// Volatile tail not flushed: mirror must not see it.
	if _, err := m.catchUp(); err != nil {
		t.Fatal(err)
	}
	got, _, err := m.repairPage(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload()) != "stable" {
		t.Errorf("mirror applied unflushed tail: %q", got.Payload())
	}
	// After the tail flushes, the mirror catches up.
	log.FlushAll()
	got2, _, err := m.repairPage(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2.Payload()) != "volatile" {
		t.Errorf("mirror stale after flush: %q", got2.Payload())
	}
}

func TestRepairUnknownPage(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	m := newMirror(log, 512)
	if _, _, err := m.repairPage(99); !errors.Is(err, errNotMirrored) {
		t.Errorf("unknown page repair: %v", err)
	}
}

func TestCatchUpIncremental(t *testing.T) {
	log := wal.NewManager(iosim.Instant)
	m := newMirror(log, 512)
	pg := formatRaw(log, 1, 512)
	logRawUpdate(log, pg, []byte("a"))
	log.FlushAll()
	b1, err := m.catchUp()
	if err != nil || b1 == 0 {
		t.Fatalf("first catch-up: %d, %v", b1, err)
	}
	// No new records: second catch-up is free.
	b2, err := m.catchUp()
	if err != nil || b2 != 0 {
		t.Fatalf("idle catch-up processed %d bytes, %v", b2, err)
	}
}
