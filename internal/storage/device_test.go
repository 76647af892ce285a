package storage

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/iosim"
	"repro/internal/page"
)

func testDevice(slots int) *Device {
	return NewDevice(Config{PageSize: 512, Slots: slots, Profile: iosim.Instant, Seed: 42})
}

func encodedPage(t *testing.T, id page.ID, fill byte) []byte {
	t.Helper()
	p := page.New(id, page.TypeRaw, 512)
	if err := p.SetPayload(bytes.Repeat([]byte{fill}, 64)); err != nil {
		t.Fatal(err)
	}
	return p.Encode()
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := testDevice(8)
	img := encodedPage(t, 1, 0xAA)
	if err := d.Write(3, img); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("read image differs from written image")
	}
}

func TestReadNeverWrittenSlotReturnsZeros(t *testing.T) {
	d := testDevice(4)
	got, err := d.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten slot returned nonzero data")
		}
	}
	if page.Verify(got) == nil {
		t.Error("zero image passed page verification")
	}
}

func TestOutOfRange(t *testing.T) {
	d := testDevice(4)
	if _, err := d.Read(4); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Read out of range: %v", err)
	}
	if err := d.Write(9, make([]byte, 512)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Write out of range: %v", err)
	}
}

func TestWrongSizeWrite(t *testing.T) {
	d := testDevice(4)
	if err := d.Write(0, make([]byte, 100)); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestFaultReadError(t *testing.T) {
	d := testDevice(4)
	if err := d.Write(1, encodedPage(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	d.InjectFault(1, FaultReadError, false)
	if _, err := d.Read(1); !errors.Is(err, ErrReadFailure) {
		t.Fatalf("want read failure, got %v", err)
	}
	// Transient fault: second read succeeds.
	if _, err := d.Read(1); err != nil {
		t.Fatalf("transient fault persisted: %v", err)
	}
}

func TestFaultReadErrorSticky(t *testing.T) {
	d := testDevice(4)
	if err := d.Write(1, encodedPage(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	d.InjectFault(1, FaultReadError, true)
	for i := 0; i < 3; i++ {
		if _, err := d.Read(1); !errors.Is(err, ErrReadFailure) {
			t.Fatalf("sticky fault did not persist on read %d: %v", i, err)
		}
	}
}

func TestFaultSilentCorruption(t *testing.T) {
	d := testDevice(4)
	img := encodedPage(t, 1, 0x77)
	if err := d.Write(1, img); err != nil {
		t.Fatal(err)
	}
	d.InjectFault(1, FaultSilentCorruption, false)
	got, err := d.Read(1)
	if err != nil {
		t.Fatalf("silent corruption must not error: %v", err)
	}
	if bytes.Equal(got, img) {
		t.Fatal("corrupted read returned pristine image")
	}
	if page.Verify(got) == nil {
		t.Error("in-page check failed to detect corruption")
	}
	// Stored image unharmed; next read clean.
	got2, err := d.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, img) {
		t.Error("transient corruption damaged the stored image")
	}
}

func TestFaultZeroPage(t *testing.T) {
	d := testDevice(4)
	if err := d.Write(1, encodedPage(t, 1, 0x11)); err != nil {
		t.Fatal(err)
	}
	d.InjectFault(1, FaultZeroPage, false)
	got, err := d.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("zero-page fault returned nonzero byte")
		}
	}
}

// tornPage builds an image whose payload spans both halves of the slot, so
// a torn write necessarily mixes content.
func tornPage(t *testing.T, fill byte) []byte {
	t.Helper()
	p := page.New(1, page.TypeRaw, 512)
	if err := p.SetPayload(bytes.Repeat([]byte{fill}, 400)); err != nil {
		t.Fatal(err)
	}
	return p.Encode()
}

func TestFaultTornWrite(t *testing.T) {
	d := testDevice(4)
	oldImg := tornPage(t, 0x01)
	newImg := tornPage(t, 0x02)
	if err := d.Write(1, oldImg); err != nil {
		t.Fatal(err)
	}
	d.InjectFault(1, FaultTornWrite, false)
	if err := d.Write(1, newImg); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:256], newImg[:256]) {
		t.Error("torn write: first half should be new")
	}
	if !bytes.Equal(got[256:], oldImg[256:]) {
		t.Error("torn write: second half should be old")
	}
	if page.Verify(got) == nil {
		t.Error("torn image passed verification")
	}
}

func TestFaultLostWrite(t *testing.T) {
	d := testDevice(4)
	oldImg := encodedPage(t, 1, 0x01)
	newImg := encodedPage(t, 1, 0x02)
	if err := d.Write(1, oldImg); err != nil {
		t.Fatal(err)
	}
	d.InjectFault(1, FaultLostWrite, false)
	if err := d.Write(1, newImg); err != nil {
		t.Fatal(err) // write is acknowledged
	}
	got, err := d.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oldImg) {
		t.Fatal("lost write: stale image expected")
	}
	// The insidious part: the stale image still verifies.
	if err := page.Verify(got); err != nil {
		t.Errorf("stale image should pass in-page checks: %v", err)
	}
}

func TestRetireSlot(t *testing.T) {
	d := testDevice(4)
	if err := d.Write(2, encodedPage(t, 1, 3)); err != nil {
		t.Fatal(err)
	}
	d.RetireSlot(2)
	if !d.Retired(2) {
		t.Fatal("slot not retired")
	}
	if _, err := d.Read(2); !errors.Is(err, ErrBadSlot) {
		t.Errorf("read of retired slot: %v", err)
	}
	if err := d.Write(2, encodedPage(t, 1, 4)); !errors.Is(err, ErrBadSlot) {
		t.Errorf("write to retired slot: %v", err)
	}
	if d.RetiredCount() != 1 {
		t.Errorf("RetiredCount = %d, want 1", d.RetiredCount())
	}
	// Nothing can read the slot again, so its image went with it.
	if d.RawImage(2) != nil || d.WrittenSlots() != 0 {
		t.Errorf("retired slot keeps its image (%d slots written)", d.WrittenSlots())
	}
}

func TestDiscard(t *testing.T) {
	d := testDevice(4)
	for _, slot := range []PhysID{1, 3} {
		if err := d.Write(slot, encodedPage(t, page.ID(slot), 7)); err != nil {
			t.Fatal(err)
		}
	}
	d.Discard(1)
	d.Discard(2)  // never written: no-op
	d.Discard(99) // out of range: no-op
	if d.RawImage(1) != nil || d.RawImage(3) == nil || d.WrittenSlots() != 1 {
		t.Fatalf("after Discard(1): slot 1 present=%v, slot 3 present=%v, %d written",
			d.RawImage(1) != nil, d.RawImage(3) != nil, d.WrittenSlots())
	}
	// A discarded slot reads like a never-written one and takes a new write.
	got, err := d.Read(1)
	if err != nil || !bytes.Equal(got, make([]byte, d.PageSize())) {
		t.Fatalf("read of discarded slot: %v, zero=%v", err, bytes.Equal(got, make([]byte, d.PageSize())))
	}
	img := encodedPage(t, 1, 9)
	if err := d.Write(1, img); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Read(1); !bytes.Equal(got, img) {
		t.Fatal("write after discard did not round-trip")
	}
	// The scrubber skips it, as it skips any unwritten slot.
	d.Discard(1)
	if res := d.Scrub(nil); res.Scanned != 1 {
		t.Errorf("scrub scanned %d slots, want 1", res.Scanned)
	}
}

func TestFailDeviceAndRevive(t *testing.T) {
	d := testDevice(4)
	if err := d.Write(0, encodedPage(t, 1, 5)); err != nil {
		t.Fatal(err)
	}
	d.FailDevice()
	if !d.Failed() {
		t.Fatal("device not failed")
	}
	if _, err := d.Read(0); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("read on failed device: %v", err)
	}
	if err := d.Write(0, encodedPage(t, 1, 6)); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("write on failed device: %v", err)
	}
	d.Revive()
	if d.Failed() {
		t.Fatal("device still failed after revive")
	}
	img, err := d.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Verify(img) == nil {
		t.Error("revived device should be empty")
	}
}

func TestCorruptStored(t *testing.T) {
	d := testDevice(4)
	img := encodedPage(t, 1, 0x3C)
	if err := d.Write(1, img); err != nil {
		t.Fatal(err)
	}
	if err := d.CorruptStored(1); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Verify(got) == nil {
		t.Error("persistently corrupted image passed verification")
	}
	// Damage is persistent across reads.
	got2, _ := d.Read(1)
	if page.Verify(got2) == nil {
		t.Error("corruption did not persist")
	}
}

// Two flips of one bit cancel, so positions drawn independently make some
// injected faults no change at all (about three in 100 000 on a 512-byte
// page). Every call must leave an image that differs from the one before.
func TestCorruptStoredAlwaysChangesTheImage(t *testing.T) {
	d := testDevice(1)
	if err := d.Write(0, encodedPage(t, 1, 0x3C)); err != nil {
		t.Fatal(err)
	}
	before := d.RawImage(0)
	for i := 0; i < 100000; i++ {
		if err := d.CorruptStored(0); err != nil {
			t.Fatal(err)
		}
		after := d.RawImage(0)
		if bytes.Equal(before, after) {
			t.Fatalf("call %d left the stored image unchanged", i)
		}
		before = after
	}
}

func TestStatsCounting(t *testing.T) {
	d := testDevice(8)
	img := encodedPage(t, 1, 1)
	for i := 0; i < 3; i++ {
		if err := d.Write(PhysID(i), img); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Read(PhysID(i % 3)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Writes != 3 || s.Reads != 5 {
		t.Errorf("stats = %+v, want 3 writes 5 reads", s)
	}
}

func TestFaultOnAndClear(t *testing.T) {
	d := testDevice(4)
	d.InjectFault(1, FaultSilentCorruption, true)
	if d.FaultOn(1) != FaultSilentCorruption {
		t.Error("FaultOn did not report injected fault")
	}
	d.ClearFault(1)
	if d.FaultOn(1) != FaultNone {
		t.Error("ClearFault did not clear")
	}
	d.InjectFault(2, FaultReadError, true)
	d.ClearAllFaults()
	if d.FaultOn(2) != FaultNone {
		t.Error("ClearAllFaults did not clear")
	}
	d.InjectFault(3, FaultZeroPage, true)
	d.InjectFault(3, FaultNone, false)
	if d.FaultOn(3) != FaultNone {
		t.Error("InjectFault(FaultNone) did not clear")
	}
}

func TestFaultKindString(t *testing.T) {
	kinds := []FaultKind{FaultNone, FaultReadError, FaultSilentCorruption,
		FaultZeroPage, FaultTornWrite, FaultLostWrite, FaultKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

func TestScrubFindsInjectedErrors(t *testing.T) {
	d := testDevice(32)
	for i := 0; i < 32; i++ {
		if err := d.Write(PhysID(i), encodedPage(t, page.ID(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	d.InjectFault(5, FaultReadError, true)
	if err := d.CorruptStored(9); err != nil {
		t.Fatal(err)
	}
	res := d.Scrub(nil)
	if res.Scanned != 32 {
		t.Errorf("scanned %d, want 32", res.Scanned)
	}
	if len(res.ReadErrors) != 1 || res.ReadErrors[0] != 5 {
		t.Errorf("read errors = %v, want [5]", res.ReadErrors)
	}
	if len(res.ChecksumErrors) != 1 || res.ChecksumErrors[0] != 9 {
		t.Errorf("checksum errors = %v, want [9]", res.ChecksumErrors)
	}
	if got := res.Failures(); len(got) != 2 {
		t.Errorf("failures = %v, want two entries", got)
	}
}

func TestScrubSkipsRetiredAndSkipped(t *testing.T) {
	d := testDevice(8)
	for i := 0; i < 8; i++ {
		if err := d.Write(PhysID(i), encodedPage(t, page.ID(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	d.RetireSlot(0)
	res := d.Scrub(func(id PhysID) bool { return id == 1 })
	if res.Scanned != 6 {
		t.Errorf("scanned %d, want 6 (8 minus retired minus skipped)", res.Scanned)
	}
}

// writtenDevice returns a device of capacity slots whose first written
// slots hold an image: a campaign draws over those only.
func writtenDevice(t *testing.T, capacity, written int) *Device {
	t.Helper()
	d := testDevice(capacity)
	for i := 0; i < written; i++ {
		if err := d.Write(PhysID(i), encodedPage(t, page.ID(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestCampaignRateAndDeterminism(t *testing.T) {
	d1 := writtenDevice(t, 4000, 1000)
	d2 := writtenDevice(t, 4000, 1000)
	c := Campaign{Rate: 0.01, Kind: FaultReadError, Sticky: true, Seed: 7}
	hit1 := c.Apply(d1)
	hit2 := c.Apply(d2)
	if len(hit1) != 10 {
		t.Errorf("campaign hit %d slots, want 10: 1%% of the 1000 written", len(hit1))
	}
	if last := hit1[len(hit1)-1]; last >= 1000 {
		t.Errorf("campaign hit slot %d, past the 1000 written", last)
	}
	if len(hit1) != len(hit2) {
		t.Fatalf("campaign not deterministic: %d vs %d", len(hit1), len(hit2))
	}
	for i := range hit1 {
		if hit1[i] != hit2[i] {
			t.Fatalf("campaign not deterministic at %d: %d vs %d", i, hit1[i], hit2[i])
		}
	}
	for _, id := range hit1 {
		if d1.FaultOn(id) != FaultReadError {
			t.Errorf("slot %d not armed", id)
		}
	}
}

func TestCampaignClustering(t *testing.T) {
	d := writtenDevice(t, 10000, 10000)
	c := Campaign{Rate: 0.01, ClusterSize: 8, Kind: FaultSilentCorruption, Seed: 3}
	hits := c.Apply(d)
	if len(hits) != 100 {
		t.Fatalf("hit %d, want 100", len(hits))
	}
	// With clustering, many hits should be adjacent.
	adjacent := 0
	for i := 1; i < len(hits); i++ {
		if hits[i] == hits[i-1]+1 {
			adjacent++
		}
	}
	if adjacent < 20 {
		t.Errorf("only %d adjacent pairs; clustering not effective", adjacent)
	}
}

func TestCampaignMinimumOneSlot(t *testing.T) {
	d := testDevice(100)
	if hits := (Campaign{Rate: 0.0001, Seed: 1}).Apply(d); len(hits) != 0 {
		t.Errorf("campaign on a device nothing was written to hit %d slots, want 0", len(hits))
	}
	d = writtenDevice(t, 100, 100)
	hits := Campaign{Rate: 0.0001, Seed: 1}.Apply(d)
	if len(hits) != 1 {
		t.Errorf("tiny-rate campaign hit %d slots, want 1", len(hits))
	}
	d = writtenDevice(t, 100, 10)
	if hits := (Campaign{Rate: 2, Seed: 1}).Apply(d); len(hits) != 10 {
		t.Errorf("campaign at rate 2 over 10 written slots hit %d, want all 10", len(hits))
	}
}

func TestScrubRangeIncrementalCursor(t *testing.T) {
	d := testDevice(16)
	for i := 0; i < 10; i++ {
		if err := d.Write(PhysID(i), encodedPage(t, page.ID(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	d.InjectFault(3, FaultReadError, true)
	if err := d.CorruptStored(7); err != nil {
		t.Fatal(err)
	}

	var failures []PhysID
	cursor := PhysID(0)
	sweeps := 0
	calls := 0
	for {
		res, next, wrapped := d.ScrubRange(cursor, 4, nil)
		failures = append(failures, res.Failures()...)
		calls++
		cursor = next
		if wrapped {
			sweeps++
			break
		}
		if calls > 16 {
			t.Fatal("cursor never wrapped")
		}
	}
	// 10 written slots at 4 per call = 3 calls to finish one sweep: the
	// six never-written slots past them are not walked.
	if calls != 3 {
		t.Fatalf("full sweep took %d calls, want 3", calls)
	}
	if sweeps != 1 {
		t.Fatalf("sweeps = %d", sweeps)
	}
	if len(failures) != 2 || failures[0] != 3 || failures[1] != 7 {
		t.Fatalf("failures = %v, want [3 7]", failures)
	}
	// The wrapped cursor restarts from 0 and finds the sticky fault again.
	res, next, _ := d.ScrubRange(cursor, 4, nil)
	if next != 4 {
		t.Fatalf("next cursor after restart = %d, want 4", next)
	}
	if len(res.ReadErrors) != 1 || res.ReadErrors[0] != 3 {
		t.Fatalf("restarted sweep missed sticky fault: %+v", res)
	}
}

func TestScrubRangeClampsAndCounts(t *testing.T) {
	d := testDevice(8)
	// Nothing written: nothing to scan, and no sweep to count.
	res, next, wrapped := d.ScrubRange(0, 64, nil)
	if res.Scanned != 0 || next != 0 || wrapped {
		t.Fatalf("empty device: scanned=%d next=%d wrapped=%v", res.Scanned, next, wrapped)
	}
	for i := 0; i < 8; i++ {
		if err := d.Write(PhysID(i), encodedPage(t, page.ID(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-range cursor snaps to 0.
	res, next, wrapped = d.ScrubRange(99, 3, nil)
	if res.Scanned != 3 || next != 3 || wrapped {
		t.Fatalf("clamped call: scanned=%d next=%d wrapped=%v", res.Scanned, next, wrapped)
	}
	// max covering past the end completes the sweep without wrapping into
	// the next one.
	res, next, wrapped = d.ScrubRange(3, 100, nil)
	if res.Scanned != 5 || next != 0 || !wrapped {
		t.Fatalf("tail call: scanned=%d next=%d wrapped=%v", res.Scanned, next, wrapped)
	}
	// Zero budget is a no-op that holds the cursor.
	res, next, wrapped = d.ScrubRange(2, 0, nil)
	if res.Scanned != 0 || next != 2 || wrapped {
		t.Fatalf("zero budget: scanned=%d next=%d wrapped=%v", res.Scanned, next, wrapped)
	}
}

// TestScrubRangeSweepsOnlyTheWrittenExtent: the campaign's pace buys
// written pages, not slot positions. A 65 536-slot device holding 100 pages
// is swept in two 64-slot calls, not 1 024.
func TestScrubRangeSweepsOnlyTheWrittenExtent(t *testing.T) {
	const written = 100
	d := testDevice(1 << 16)
	for i := 0; i < written; i++ {
		if err := d.Write(PhysID(i), encodedPage(t, page.ID(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	cursor, scanned := PhysID(0), 0
	for calls := 1; ; calls++ {
		res, next, wrapped := d.ScrubRange(cursor, 64, nil)
		scanned += res.Scanned
		cursor = next
		if wrapped {
			if calls != 2 || scanned != written {
				t.Fatalf("sweep took %d calls and scanned %d slots, want 2 and %d", calls, scanned, written)
			}
			return
		}
		if calls == 2 {
			t.Fatalf("no wrap after %d calls (cursor %d of %d written slots)", calls, cursor, written)
		}
	}
}

// TestSlotTableFollowsWrites: a device costs what it stores, not what it
// can address. A million-slot device holding three pages must not carry a
// million-entry slot table (24 MiB of slice headers).
func TestSlotTableFollowsWrites(t *testing.T) {
	img := encodedPage(t, 1, 0x5A)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDevice(Config{PageSize: 512, Slots: 1 << 20, Profile: iosim.Instant, Seed: 1})
	for i := 0; i < 3; i++ {
		if err := d.Write(PhysID(i), img); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
		t.Fatalf("a 1Mi-slot device holding 3 pages raised the heap by %d bytes, want < 64 KiB", grew)
	}
	if d.Slots() != 1<<20 {
		t.Fatalf("Slots() = %d, want the capacity %d", d.Slots(), 1<<20)
	}
}

// TestSlotsPastTheTable: a slot within capacity but beyond the grown slot
// table behaves as a slot that was never written, whatever touches it.
func TestSlotsPastTheTable(t *testing.T) {
	const capacity, written = 64, 3
	beyond := PhysID(40)
	cases := []struct {
		name string
		run  func(t *testing.T, d *Device)
	}{
		{"read returns zeros", func(t *testing.T, d *Device) {
			buf := bytes.Repeat([]byte{0xFF}, 512)
			if err := d.ReadInto(beyond, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, 512)) {
				t.Fatal("a slot past the table read back nonzero bytes")
			}
		}},
		{"raw image is nil", func(t *testing.T, d *Device) {
			if img := d.RawImage(beyond); img != nil {
				t.Fatalf("RawImage past the table = %d bytes, want nil", len(img))
			}
		}},
		{"discard and retire", func(t *testing.T, d *Device) {
			d.Discard(beyond)
			d.RetireSlot(beyond + 1)
			if !d.Retired(beyond+1) || d.WrittenSlots() != written || len(d.slots) != written {
				t.Fatalf("retired=%v written=%d table=%d", d.Retired(beyond+1), d.WrittenSlots(), len(d.slots))
			}
		}},
		{"corrupt stored grows the table", func(t *testing.T, d *Device) {
			if err := d.CorruptStored(beyond); err != nil {
				t.Fatal(err)
			}
			if len(d.slots) != int(beyond)+1 || d.RawImage(beyond) == nil {
				t.Fatalf("table %d entries after corrupting slot %d", len(d.slots), beyond)
			}
			if err := d.CorruptStored(capacity); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("CorruptStored past capacity: %v", err)
			}
		}},
		{"revive empties the table", func(t *testing.T, d *Device) {
			d.FailDevice()
			d.Revive()
			if d.slots != nil || d.WrittenSlots() != 0 || d.Slots() != capacity {
				t.Fatalf("after Revive: table %d entries, %d written, capacity %d", len(d.slots), d.WrittenSlots(), d.Slots())
			}
		}},
		{"scrub stops at the table", func(t *testing.T, d *Device) {
			res, next, wrapped := d.ScrubRange(0, 5, nil)
			if res.Scanned != written || next != 0 || !wrapped {
				t.Fatalf("sweep of %d written slots: scanned=%d next=%d wrapped=%v", written, res.Scanned, next, wrapped)
			}
			// A write past the table extends the sweep to it.
			if err := d.Write(beyond, encodedPage(t, page.ID(beyond), 1)); err != nil {
				t.Fatal(err)
			}
			res, next, wrapped = d.ScrubRange(0, int(beyond), nil)
			if res.Scanned != written || next != beyond || wrapped {
				t.Fatalf("first %d positions: scanned=%d next=%d wrapped=%v", beyond, res.Scanned, next, wrapped)
			}
			res, next, wrapped = d.ScrubRange(next, 5, nil)
			if res.Scanned != 1 || next != 0 || !wrapped {
				t.Fatalf("tail from slot %d: scanned=%d next=%d wrapped=%v", beyond, res.Scanned, next, wrapped)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := testDevice(capacity)
			for i := 0; i < written; i++ {
				if err := d.Write(PhysID(i), encodedPage(t, page.ID(i+1), byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			if len(d.slots) != written {
				t.Fatalf("table has %d entries after writing slots 0..%d", len(d.slots), written-1)
			}
			c.run(t, d)
		})
	}
}
