// Package storage simulates a page-addressed storage device with
// configurable fault injection.
//
// The paper's fourth failure class covers "all failures to read a data page
// correctly and with plausible contents despite all correction attempts in
// lower system levels" (§3.2). This device reproduces the lower system
// levels: it stores raw page images in physical slots and can inject the
// fault modes that motivate the paper — silent corruption (the RAID-5
// anecdote of §1), explicit unrecoverable read errors (the "latent sector
// errors" of Bairavasundaram et al.), torn writes, and lost ("stuck")
// writes. It also implements disk scrubbing, the background re-read pass the
// paper cites as the main discoverer of latent errors.
package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/iosim"
)

// PhysID is a physical slot number on a device. Slot numbering starts at 0.
type PhysID uint64

// Errors returned by device operations.
var (
	// ErrReadFailure is an explicit unrecoverable read error: the device
	// firmware gave up after all retries, the paper's "latent sector
	// error" case. The caller receives no data at all.
	ErrReadFailure = errors.New("storage: unrecoverable read error")
	// ErrWriteFailure is an explicit write error.
	ErrWriteFailure = errors.New("storage: write error")
	// ErrOutOfRange reports an access beyond the device capacity.
	ErrOutOfRange = errors.New("storage: physical id out of range")
	// ErrBadSlot reports an access to a slot on the bad-block list.
	ErrBadSlot = errors.New("storage: slot retired to bad-block list")
	// ErrDeviceFailed reports that the whole device has failed (media
	// failure), e.g. after FailDevice.
	ErrDeviceFailed = errors.New("storage: device failed")
)

// FaultKind selects the failure mode injected on a slot.
type FaultKind int

// Fault kinds, in rough order of nastiness.
const (
	// FaultNone clears any injected fault.
	FaultNone FaultKind = iota
	// FaultReadError makes reads return ErrReadFailure: the device knows
	// it lost the sector. Detected trivially; data still lost.
	FaultReadError
	// FaultSilentCorruption flips bits in the stored image and returns it
	// with no error — the nightmare case from the paper's introduction.
	// In-page checks (checksum) must catch it.
	FaultSilentCorruption
	// FaultZeroPage returns an all-zero image with no error (firmware
	// "recovered" the sector to zeros).
	FaultZeroPage
	// FaultTornWrite applies only the first half of the next write; the
	// stored image mixes old and new halves.
	FaultTornWrite
	// FaultLostWrite acknowledges writes but never applies them: later
	// reads return the stale image with a valid checksum. Only the
	// PageLSN cross-check against the page recovery index can detect
	// this (paper §5.2.2, the Gary Smith acknowledgment).
	FaultLostWrite
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultReadError:
		return "read-error"
	case FaultSilentCorruption:
		return "silent-corruption"
	case FaultZeroPage:
		return "zero-page"
	case FaultTornWrite:
		return "torn-write"
	case FaultLostWrite:
		return "lost-write"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// fault is an injected failure on one slot. A fault value is immutable
// after publication in the fault table; firing a transient fault removes
// the whole entry.
type fault struct {
	kind FaultKind
	// sticky faults persist across reads; non-sticky faults fire once.
	sticky bool
	// armed torn/lost writes wait for the next write.
	armed bool
}

// Stats counts device-level operations and failures.
type Stats struct {
	Reads          int64
	Writes         int64
	ReadErrors     int64
	CorruptReturns int64
	LostWrites     int64
	TornWrites     int64
	Scrubs         int64
}

// statsCounters is the contention-free internal form of Stats.
type statsCounters struct {
	reads          atomic.Int64
	writes         atomic.Int64
	readErrors     atomic.Int64
	corruptReturns atomic.Int64
	lostWrites     atomic.Int64
	tornWrites     atomic.Int64
	scrubs         atomic.Int64
}

// Device is an in-memory page-addressed store with fault injection.
// All methods are safe for concurrent use.
//
// Reads are the engine's hot path (every buffer-pool miss lands here, and
// single-page detection rides on it), so the fault-free read takes only
// the shared side of an RWMutex and mutates no shared state: statistics
// are atomic counters and the fault table is a sync.Map whose lookup
// misses cost one lock-free load. The exclusive lock is reserved for
// mutations of the slot table and device-wide state (writes, retirement,
// media failure, revival).
//
// Memory follows what is stored, not the capacity: the slot table grows
// when a slot past its end is first written, and a slot beyond it reads
// as never written. A large device that holds a few pages costs a few
// pages.
type Device struct {
	mu       sync.RWMutex
	pageSize int
	capacity int             // slots addressable; immutable
	slots    [][]byte        // grows on first write; nil entry or beyond = never written
	faults   sync.Map        // PhysID -> *fault
	bad      map[PhysID]bool // bad-block list: retired slots; written under mu
	failed   bool            // whole-device (media) failure; written under mu
	clock    *iosim.Clock
	rngMu    sync.Mutex
	rng      *rand.Rand
	stats    statsCounters
}

// Config configures a Device.
type Config struct {
	// PageSize is the size of each slot in bytes.
	PageSize int
	// Slots is the device capacity in pages.
	Slots int
	// Profile selects the I/O cost model; zero value charges nothing.
	Profile iosim.Profile
	// Seed seeds the corruption RNG for reproducible fault campaigns.
	Seed int64
}

// NewDevice creates a device with the given geometry.
func NewDevice(cfg Config) *Device {
	if cfg.PageSize <= 0 {
		panic("storage: PageSize must be positive")
	}
	if cfg.Slots <= 0 {
		panic("storage: Slots must be positive")
	}
	return &Device{
		pageSize: cfg.PageSize,
		capacity: cfg.Slots,
		bad:      make(map[PhysID]bool),
		clock:    iosim.NewClock(cfg.Profile),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// PageSize returns the slot size in bytes.
func (d *Device) PageSize() int { return d.pageSize }

// Slots returns the device capacity in pages.
func (d *Device) Slots() int { return d.capacity }

// Clock returns the device's simulated-time clock.
func (d *Device) Clock() *iosim.Clock { return d.clock }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads:          d.stats.reads.Load(),
		Writes:         d.stats.writes.Load(),
		ReadErrors:     d.stats.readErrors.Load(),
		CorruptReturns: d.stats.corruptReturns.Load(),
		LostWrites:     d.stats.lostWrites.Load(),
		TornWrites:     d.stats.tornWrites.Load(),
		Scrubs:         d.stats.scrubs.Load(),
	}
}

// Read returns a copy of the image stored in slot id, after applying any
// injected fault. A nil error with corrupted contents models silent
// corruption; callers must run their own in-page checks.
func (d *Device) Read(id PhysID) ([]byte, error) {
	out := make([]byte, d.pageSize)
	if err := d.ReadInto(id, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto reads the image stored in slot id into buf, which must be
// exactly PageSize bytes, after applying any injected fault. It exists so
// hot read paths (the buffer pool's fetch-and-validate) can reuse scratch
// buffers instead of allocating per read. On error buf contents are
// unspecified.
func (d *Device) ReadInto(id PhysID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if int(id) >= d.capacity {
		return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, id, d.capacity)
	}
	if d.bad[id] {
		return fmt.Errorf("%w: %d", ErrBadSlot, id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read of %d-byte slot into %d-byte buffer", d.pageSize, len(buf))
	}
	d.stats.reads.Add(1)
	d.clock.Access(int64(id)*int64(d.pageSize), int64(d.pageSize))

	if img := d.stored(id); img != nil {
		copy(buf, img)
	} else {
		zero(buf)
	}

	f := d.readFault(id)
	if f == nil {
		return nil
	}
	switch f.kind {
	case FaultReadError:
		d.stats.readErrors.Add(1)
		return fmt.Errorf("%w: slot %d", ErrReadFailure, id)
	case FaultSilentCorruption:
		d.corrupt(buf)
		d.stats.corruptReturns.Add(1)
		return nil
	case FaultZeroPage:
		zero(buf)
		d.stats.corruptReturns.Add(1)
		return nil
	default:
		return nil
	}
}

// readFault claims the fault (if any) that the current read should apply.
// Transient faults fire exactly once even under concurrent readers: the
// reader that wins the CompareAndDelete applies it, everyone else reads
// clean. Armed write faults never affect reads.
func (d *Device) readFault(id PhysID) *fault {
	v, ok := d.faults.Load(id)
	if !ok {
		return nil
	}
	f := v.(*fault)
	if f.armed {
		return nil
	}
	if !f.sticky && !d.faults.CompareAndDelete(id, v) {
		return nil
	}
	return f
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// corrupt flips 1-8 distinct random bits, modeling media decay that slipped
// past the device ECC. The positions are distinct because two flips of one
// bit cancel: the injected fault would then be no change at all, which no
// detector can or should see. The RNG has its own lock so corrupting reads
// can run under the shared device lock.
func (d *Device) corrupt(img []byte) {
	d.rngMu.Lock()
	defer d.rngMu.Unlock()
	var flipped [8]int
	nbits := 1 + d.rng.Intn(len(flipped))
	for i := 0; i < nbits; {
		at := d.rng.Intn(len(img))*8 + d.rng.Intn(8)
		if slices.Contains(flipped[:i], at) {
			continue // drawn before: draw again
		}
		flipped[i] = at
		img[at/8] ^= 1 << uint(at%8)
		i++
	}
}

// Write stores a copy of img in slot id, honoring armed torn/lost write
// faults. len(img) must equal PageSize.
func (d *Device) Write(id PhysID, img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	if int(id) >= d.capacity {
		return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, id, d.capacity)
	}
	if d.bad[id] {
		return fmt.Errorf("%w: %d", ErrBadSlot, id)
	}
	if len(img) != d.pageSize {
		return fmt.Errorf("storage: write of %d bytes to %d-byte slot", len(img), d.pageSize)
	}
	d.stats.writes.Add(1)
	d.clock.Access(int64(id)*int64(d.pageSize), int64(d.pageSize))

	if v, ok := d.faults.Load(id); ok {
		if f := v.(*fault); f.armed {
			switch f.kind {
			case FaultTornWrite:
				// Apply only the first half; the stored second half (zeros
				// if never written) survives.
				dst := d.storedBuf(id)
				copy(dst[:d.pageSize/2], img[:d.pageSize/2])
				d.stats.tornWrites.Add(1)
				if !f.sticky {
					d.faults.CompareAndDelete(id, v)
				}
				return nil
			case FaultLostWrite:
				// Acknowledge but drop the write.
				d.stats.lostWrites.Add(1)
				if !f.sticky {
					d.faults.CompareAndDelete(id, v)
				}
				return nil
			}
		}
	}
	copy(d.storedBuf(id), img)
	return nil
}

// stored returns the image held in slot id, nil if it was never written.
// Callers hold mu (either side) and have checked id against the capacity.
func (d *Device) stored(id PhysID) []byte {
	if int(id) < len(d.slots) {
		return d.slots[id]
	}
	return nil
}

// extent is the length of the slot table: one past the highest slot ever
// written.
func (d *Device) extent() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.slots)
}

// storedBuf returns the slot's backing buffer, growing the slot table and
// allocating the buffer on first write. Reusing the buffer across
// overwrites keeps the steady-state write path allocation-free. Callers
// hold mu exclusively and have checked id against the capacity.
func (d *Device) storedBuf(id PhysID) []byte {
	if n := int(id) + 1; n > len(d.slots) {
		d.slots = append(d.slots, make([][]byte, n-len(d.slots))...)
	}
	if d.slots[id] == nil {
		d.slots[id] = make([]byte, d.pageSize)
	}
	return d.slots[id]
}

// InjectFault arms a fault on slot id. Torn/lost-write faults trigger on the
// next write; the others trigger on reads. sticky keeps the fault armed
// after it fires.
func (d *Device) InjectFault(id PhysID, kind FaultKind, sticky bool) {
	if kind == FaultNone {
		d.faults.Delete(id)
		return
	}
	d.faults.Store(id, &fault{
		kind:   kind,
		sticky: sticky,
		armed:  kind == FaultTornWrite || kind == FaultLostWrite,
	})
}

// ClearFault removes any injected fault from slot id.
func (d *Device) ClearFault(id PhysID) {
	d.faults.Delete(id)
}

// ClearAllFaults removes every injected fault.
func (d *Device) ClearAllFaults() {
	d.faults.Clear()
}

// FaultOn reports the fault currently armed on slot id.
func (d *Device) FaultOn(id PhysID) FaultKind {
	if v, ok := d.faults.Load(id); ok {
		return v.(*fault).kind
	}
	return FaultNone
}

// RetireSlot adds a slot to the bad-block list; all further accesses fail.
// The paper's recovery procedure retires the failed location after moving
// the recovered page elsewhere (§5.2.3). Nothing can read a retired slot
// again, so its image is discarded with it.
func (d *Device) RetireSlot(id PhysID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bad[id] = true
	d.faults.Delete(id)
	d.discardLocked(id)
}

// Discard drops the image stored in slot id (the device's TRIM): the slot
// reads as never written until its next Write. Owners call it when they
// free a slot whose image no recovery can resolve against any more — a
// superseded backup copy, a dropped backup set — so a freed slot costs no
// space while it waits for reuse.
func (d *Device) Discard(id PhysID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.discardLocked(id)
}

func (d *Device) discardLocked(id PhysID) {
	if int(id) < len(d.slots) {
		d.slots[id] = nil
	}
}

// WrittenSlots counts the slots currently holding an image.
func (d *Device) WrittenSlots() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, img := range d.slots {
		if img != nil {
			n++
		}
	}
	return n
}

// Retired reports whether a slot is on the bad-block list.
func (d *Device) Retired(id PhysID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.bad[id]
}

// RetiredCount returns the size of the bad-block list.
func (d *Device) RetiredCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.bad)
}

// FailDevice marks the entire device as failed: every subsequent operation
// returns ErrDeviceFailed. This models the media-failure escalation of the
// paper's Figure 1.
func (d *Device) FailDevice() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Failed reports whether the device as a whole has failed.
func (d *Device) Failed() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.failed
}

// Revive replaces a failed device with a fresh, empty one of the same
// geometry (hardware replacement before media recovery). The new device
// holds nothing, so it costs nothing until media recovery writes to it.
func (d *Device) Revive() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
	d.slots = nil
	d.bad = make(map[PhysID]bool)
	d.faults.Clear()
}

// RawImage returns the stored image without applying faults or charging
// I/O. Intended for tests and for the scrubber's internal comparisons; nil
// means the slot was never written.
func (d *Device) RawImage(id PhysID) []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	img := d.stored(id)
	if img == nil {
		return nil
	}
	out := make([]byte, d.pageSize)
	copy(out, img)
	return out
}

// CorruptStored flips bits directly in the stored image (not just the
// returned copy), so even fault-free reads see the damage. Models in-place
// media decay.
func (d *Device) CorruptStored(id PhysID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= d.capacity {
		return fmt.Errorf("%w: %d", ErrOutOfRange, id)
	}
	d.corrupt(d.storedBuf(id))
	return nil
}
