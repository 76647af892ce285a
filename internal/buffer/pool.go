// Package buffer implements the buffer pool.
//
// The buffer pool is where the paper's detection and recovery hook into
// normal processing:
//
//   - the read path (paper Fig. 8) validates every page as it is loaded —
//     device errors, in-page checks, and the PageLSN cross-check against the
//     page recovery index — and on failure invokes single-page recovery
//     instead of declaring a media failure;
//   - the write-back path (paper Fig. 11) writes the dirty page, then
//     reports the completed write so the engine can log the page recovery
//     index update, and only then allows eviction.
//
// Because every page read is verified, the fetch path is the throughput
// bottleneck of the whole engine, so the pool is built to scale with cores:
//
//   - frames are partitioned across a power-of-two number of shards, each
//     owning its own frame index and clock (second-chance) eviction ring,
//     so fetches of different pages rarely touch shared state;
//   - pin counts and clock reference bits are atomics, and the per-shard
//     frame index is a sync.Map, so a fetch of a resident page — the hot
//     path — takes no locks and performs no allocations (each frame embeds
//     its Handle);
//   - eviction claims a victim by atomically swinging its pin count from 0
//     to a negative "dead" sentinel, which cannot race with concurrent
//     pinners;
//   - statistics are atomic counters, read-modify-written without locks;
//   - a flush encodes through a sync.Pool of page-sized scratch buffers,
//     so it allocates nothing; a device read lands in the one page-sized
//     buffer the loaded page then owns, so it is copied once.
//
// Total residency is still bounded by one global capacity, maintained as an
// atomic reservation counter: a loader reserves a slot for the page it has
// read, running the clock over the shards to free one if need be.
//
// A page is loaded by one fetch at a time (shard.loads): the fetch that
// finds a page bad repairs it, and every other fetch of that page waits for
// that one load instead of starting its own.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/page"
	"repro/internal/pagemap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Errors returned by the pool.
var (
	ErrPoolFull     = errors.New("buffer: all frames pinned")
	ErrNotResident  = errors.New("buffer: page not resident")
	ErrPinned       = errors.New("buffer: page still pinned")
	ErrUnknownPage  = errors.New("buffer: unknown logical page")
	ErrPageFailed   = errors.New("buffer: single-page failure")
	ErrNeverWritten = errors.New("buffer: page never written and not resident")
)

// WriteInfo describes one completed page write, handed to the
// CompleteWrite hook. It carries everything the engine needs to maintain
// the page recovery index and the physical page map.
type WriteInfo struct {
	Page    page.ID
	PageLSN page.LSN
	Dest    storage.PhysID
	// Image is the page as written: the frame's own page, valid only until
	// the hook returns.
	Image *page.Page
	// Updates counts the MarkDirty calls — the page's logged updates —
	// since the frame's previous write-back, or since it was installed.
	Updates int
}

// Hooks connect the pool to the engine. All hooks may be nil.
type Hooks struct {
	// Validate runs after a page image passed the in-page checks; the
	// engine uses it for the PageLSN cross-check against the page
	// recovery index (§5.2.2). A non-nil error marks the read a
	// single-page failure.
	Validate func(pg *page.Page) error
	// Recover performs single-page recovery and returns the up-to-date
	// page contents. have is what the load read from the page's slot when
	// that passed the in-page checks and only Validate refused it, else
	// nil; Recover may rebuild the page on it, in place, and reports
	// whether it did — the slot then holds a true version of its page and
	// stays in service. It runs on the goroutine of the fetch that loads
	// the page, at most once per load, and must not fetch that page. If it
	// fails, the read escalates: the pool returns the recovery error
	// wrapped in ErrPageFailed. For a page that has no slot, an error
	// wrapping ErrNeverWritten says the engine knows nothing of the page
	// either; the pool returns it as is.
	Recover func(id page.ID, have *page.Page) (pg *page.Page, fromHave bool, err error)
	// CompleteWrite runs after a dirty page has been written to the
	// device, while the write is still serialized against other flushes
	// of the same page (inside the frame's flush mutex, with the page latch
	// held shared, so WriteInfo.Image cannot change under it). The engine
	// may copy that image, and updates its page recovery index here
	// — the serialization guarantees per-page notifications arrive in
	// write order — and returns the log records describing the update. The
	// pool appends them: immediately for a per-page flush
	// (eviction, FlushPage — the Fig. 11 "record written before the page
	// is truly evicted" sequence), or as one grouped reserve-fill append
	// per batch for FlushBatch/FlushPages/FlushAll. A batch's records may
	// therefore trail the device writes briefly; a crash inside that
	// window leaves exactly the "page written, PRI record lost" state
	// restart redo repairs (Fig. 12).
	CompleteWrite func(info WriteInfo) []*wal.Record
	// OnMarkDirty runs on every MarkDirty call — once per logged page
	// update. The engine uses it to wake its background write-back when the
	// dirty count crosses a watermark; the updates themselves are counted
	// on the frame and reported in WriteInfo.Updates. Must be cheap and
	// must not call back into the pool.
	OnMarkDirty func(id page.ID)
	// OnReadRetry runs before each immediate re-read of a failed device
	// read. The engine counts these in its restore statistics.
	OnReadRetry func(id page.ID)
}

// Stats counts pool activity.
type Stats struct {
	Hits               int64
	Misses             int64
	Evictions          int64
	Writes             int64
	ValidationFailures int64
	Recoveries         int64
	Escalations        int64
}

// counters is the internal, contention-free form of Stats.
type counters struct {
	hits               atomic.Int64
	misses             atomic.Int64
	evictions          atomic.Int64
	writes             atomic.Int64
	validationFailures atomic.Int64
	recoveries         atomic.Int64
	escalations        atomic.Int64
}

// pinsDead is the pin-count sentinel marking a frame claimed for eviction.
// A fetcher's tryPin fails against it, and an evictor installs it only via
// a compare-and-swap from zero, so claiming cannot race with pinning.
const pinsDead int32 = -1 << 30

// frame is one buffer slot. pins and ref are atomics so the hit path never
// locks; dirty, recLSN and updates are guarded by metaMu so that MarkDirty
// can be called while holding the page latch without touching any pool
// lock (avoiding a lock cycle with the flush path, which acquires the
// latch). flushMu serializes write-back of this frame, so the engine sees
// each page's writes in order. ringIdx is the frame's position in its
// shard's clock ring, guarded by the shard mutex.
type frame struct {
	id    page.ID
	latch sync.RWMutex
	pg    *page.Page
	pins  atomic.Int32
	ref   atomic.Bool // clock reference bit (second chance)
	h     Handle      // shared pinned-reference value; avoids per-Fetch allocs

	// version is the frame's optimistic-coupling sequence counter: every
	// exclusive latch acquisition bumps it to odd, every release bumps it
	// back to even, so an even value identifies one stable snapshot of the
	// page contents and any change — or an in-flight writer — is visible
	// as a version mismatch. Readers that route through cached data
	// validate against it (Handle.StableVersion / ValidateVersion) instead
	// of holding the read latch. The counter belongs to the frame, not the
	// page: a frame is created per residency, so a reloaded or recovered
	// page can never satisfy a validation started against its predecessor.
	version atomic.Uint64
	// skel caches one immutable decoded object (the B-tree routing
	// skeleton) stamped with the even version it was built from; a stamp
	// that no longer matches the current version is dead weight that the
	// next stable reader overwrites. Stored as any to keep the pool
	// layer-agnostic.
	skel atomic.Pointer[versionedBlob]

	flushMu sync.Mutex

	metaMu  sync.Mutex
	dirty   bool
	recLSN  page.LSN // LSN that first dirtied the page since last clean
	updates int      // MarkDirty calls since the last write-back took them

	ringIdx int
}

// versionedBlob pairs a cached decoded object with the frame version it
// was built from.
type versionedBlob struct {
	version uint64
	data    any
}

// tryPin increments the pin count unless the frame has been claimed for
// eviction.
func (f *frame) tryPin() bool {
	for {
		p := f.pins.Load()
		if p < 0 {
			return false
		}
		if f.pins.CompareAndSwap(p, p+1) {
			return true
		}
	}
}

func (f *frame) isDirty() bool {
	f.metaMu.Lock()
	defer f.metaMu.Unlock()
	return f.dirty
}

// takeUpdates returns the updates counted since the last call and restarts
// the count.
func (f *frame) takeUpdates() int {
	f.metaMu.Lock()
	defer f.metaMu.Unlock()
	n := f.updates
	f.updates = 0
	return n
}

// setClean clears a frame's dirty state and maintains the pool's dirty
// count (the watermark signal for background write-back).
func (p *Pool) setClean(f *frame) {
	f.metaMu.Lock()
	if f.dirty {
		f.dirty = false
		p.dirty.Add(-1)
	}
	f.recLSN = page.ZeroLSN
	f.metaMu.Unlock()
}

// shard is one partition of the pool: a lock-free frame index for the hit
// path plus a mutex-guarded clock ring for installs and eviction, and the
// table of loads in flight.
type shard struct {
	mu     sync.Mutex
	frames sync.Map          // page.ID -> *frame
	loads  map[page.ID]*load // pages being loaded; guarded by mu
	ring   []*frame          // clock ring; positions tracked in frame.ringIdx
	hand   int
	count  atomic.Int64
}

// load is one page on its way into the pool. The fetch that created the
// entry — the page's loader — reads, validates and, if need be, repairs
// the page; every fetch that finds the entry waits for done and takes the
// loader's outcome. A page has at most one loader at a time, so a recovery
// takes a page off its slot only while no frame of it exists: no flush can
// be writing to the slot being retired.
type load struct {
	done    chan struct{}
	waiters int32  // fetches parked on done; guarded by the shard mutex
	f       *frame // written, with err, before done closes
	err     error
}

// installLocked adds a frame to the shard. Caller holds s.mu.
func (s *shard) installLocked(f *frame) {
	f.ringIdx = len(s.ring)
	s.ring = append(s.ring, f)
	s.frames.Store(f.id, f)
	s.count.Add(1)
}

// removeLocked deletes a claimed (dead) frame. Caller holds s.mu.
func (s *shard) removeLocked(f *frame) {
	s.frames.Delete(f.id)
	i := f.ringIdx
	last := len(s.ring) - 1
	s.ring[i] = s.ring[last]
	s.ring[i].ringIdx = i
	s.ring[last] = nil
	s.ring = s.ring[:last]
	if s.hand > last {
		s.hand = 0
	}
	s.count.Add(-1)
}

// Pool is the buffer pool. Safe for concurrent use.
type Pool struct {
	shards   []*shard
	shift    uint // 64 - log2(len(shards)), for the multiplicative hash
	capacity int
	used     atomic.Int64 // frames resident or reserved by in-flight loads
	dirty    atomic.Int64 // frames currently dirty (write-back watermark)
	rotor    atomic.Uint64
	dev      *storage.Device
	pmap     *pagemap.Map
	log      *wal.Manager
	hooks    atomic.Pointer[Hooks]
	stats    counters
	scratch  sync.Pool // *[]byte of dev.PageSize() bytes

	readRetries int
}

// Config configures a pool.
type Config struct {
	// Capacity is the total number of frames across all shards.
	Capacity int
	// Shards is the number of shards, rounded up to a power of two.
	// Zero selects max(8, GOMAXPROCS).
	Shards int
	Device *storage.Device
	Map    *pagemap.Map
	Log    *wal.Manager
	Hooks  Hooks
	// ReadRetries bounds the immediate re-reads of a failed device read
	// before the failure is treated as a real single-page failure. A
	// one-shot fault — a device hiccup that a re-read clears — then costs a
	// second read instead of a backup-plus-chain replay and a retired slot.
	// There is no wait between attempts: whatever outlives an immediate
	// re-read is, by the paper's definition, a failure "despite all
	// correction attempts in lower system levels" (§3.2), and repairing it
	// costs less than any wait worth choosing. Default 2; negative
	// disables re-reading.
	ReadRetries int
}

// NewPool creates a buffer pool.
func NewPool(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
	}
	n = nextPow2(n)
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{loads: make(map[page.ID]*load)}
	}
	shift := uint(64)
	for m := n; m > 1; m >>= 1 {
		shift--
	}
	p := &Pool{
		shards:      shards,
		shift:       shift,
		capacity:    cfg.Capacity,
		dev:         cfg.Device,
		pmap:        cfg.Map,
		log:         cfg.Log,
		readRetries: cfg.ReadRetries,
	}
	if p.readRetries == 0 {
		p.readRetries = 2
	} else if p.readRetries < 0 {
		p.readRetries = 0
	}
	hooks := cfg.Hooks
	p.hooks.Store(&hooks)
	pageSize := cfg.Device.PageSize()
	p.scratch.New = func() any {
		b := make([]byte, pageSize)
		return &b
	}
	return p
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardOf routes a page ID to its shard via a multiplicative hash, so
// sequentially allocated IDs spread evenly.
func (p *Pool) shardOf(id page.ID) *shard {
	if p.shift == 64 {
		return p.shards[0]
	}
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15)>>p.shift]
}

func (p *Pool) getHooks() *Hooks { return p.hooks.Load() }

// SetHooks replaces the hook set; intended for engine wiring during startup.
func (p *Pool) SetHooks(h Hooks) {
	p.hooks.Store(&h)
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:               p.stats.hits.Load(),
		Misses:             p.stats.misses.Load(),
		Evictions:          p.stats.evictions.Load(),
		Writes:             p.stats.writes.Load(),
		ValidationFailures: p.stats.validationFailures.Load(),
		Recoveries:         p.stats.recoveries.Load(),
		Escalations:        p.stats.escalations.Load(),
	}
}

// Capacity returns the number of frames.
func (p *Pool) Capacity() int { return p.capacity }

// Shards returns the number of shards.
func (p *Pool) Shards() int { return len(p.shards) }

// DirtyCount returns the number of dirty frames — one atomic load, cheap
// enough for the background flusher's watermark check on every MarkDirty.
func (p *Pool) DirtyCount() int { return int(p.dirty.Load()) }

// Resident returns the number of pages currently buffered.
func (p *Pool) Resident() int {
	var n int64
	for _, s := range p.shards {
		n += s.count.Load()
	}
	return int(n)
}

func (p *Pool) getScratch() *[]byte  { return p.scratch.Get().(*[]byte) }
func (p *Pool) putScratch(b *[]byte) { p.scratch.Put(b) }

// Handle is a pinned reference to a buffered page. Callers must Release it.
// The embedded latch (Lock/RLock) protects the page contents; callers
// updating the page must hold the write latch. Handles carry no per-caller
// state: concurrent fetchers of the same page share one Handle value, which
// is what makes the hit path allocation-free.
type Handle struct {
	pool *Pool
	id   page.ID
	f    *frame
}

// ID returns the logical page ID.
func (h *Handle) ID() page.ID { return h.id }

// Page returns the buffered page. The caller must hold the appropriate
// latch while reading or writing it.
func (h *Handle) Page() *page.Page { return h.f.pg }

// Lock acquires the page's write latch and bumps the frame version to odd:
// optimistic readers see an in-flight writer as an unstable version and
// fall back to latched reads.
func (h *Handle) Lock() {
	h.f.latch.Lock()
	h.f.version.Add(1)
}

// Unlock bumps the frame version back to even — publishing a new stable
// snapshot — and releases the write latch.
func (h *Handle) Unlock() {
	h.f.version.Add(1)
	h.f.latch.Unlock()
}

// RLock acquires the page's read latch. Shared latching never bumps the
// version: readers do not mutate, so the snapshot they observe stays valid.
func (h *Handle) RLock() { h.f.latch.RLock() }

// RUnlock releases the read latch.
func (h *Handle) RUnlock() { h.f.latch.RUnlock() }

// TryLock attempts the write latch without blocking, bumping the version
// on success exactly like Lock. Opportunistic maintenance (B-tree foster
// adoption) uses it so background structural work never stalls behind a
// contended page.
func (h *Handle) TryLock() bool {
	if !h.f.latch.TryLock() {
		return false
	}
	h.f.version.Add(1)
	return true
}

// TryRLock attempts the read latch without blocking.
func (h *Handle) TryRLock() bool { return h.f.latch.TryRLock() }

// StableVersion returns the frame's current version and whether it is
// stable (even — no exclusive latch holder). An optimistic reader records
// the returned version, reads whatever it needs without latching, and then
// re-checks with ValidateVersion; acting on the data without that re-check
// is a protocol violation (see ARCHITECTURE.md, buffer invariants).
func (h *Handle) StableVersion() (uint64, bool) {
	v := h.f.version.Load()
	return v, v&1 == 0
}

// ValidateVersion reports whether the frame version still equals v — i.e.
// no exclusive latch was acquired since the matching StableVersion call,
// so everything read in between came from one consistent snapshot.
func (h *Handle) ValidateVersion(v uint64) bool {
	return h.f.version.Load() == v
}

// CachedSkeleton returns the decoded object cached on the frame if its
// stamp matches version v, else nil. The caller must have obtained v from
// StableVersion and must still ValidateVersion after acting on the result.
func (h *Handle) CachedSkeleton(v uint64) any {
	if b := h.f.skel.Load(); b != nil && b.version == v {
		return b.data
	}
	return nil
}

// StoreSkeleton caches an immutable decoded object stamped with the stable
// version it was built from. Stale stamps need no explicit invalidation:
// the version counter has moved on, so CachedSkeleton simply stops
// returning them. A racing store for a newer version always wins.
func (h *Handle) StoreSkeleton(v uint64, data any) {
	b := &versionedBlob{version: v, data: data}
	for {
		cur := h.f.skel.Load()
		if cur != nil && cur.version >= v {
			return
		}
		if h.f.skel.CompareAndSwap(cur, b) {
			return
		}
	}
}

// MarkDirty records that the page was modified under a log record with the
// given LSN. The first dirtying LSN since the page was last clean is kept
// as the recovery LSN for checkpointing (the ARIES dirty page table), and
// the update is counted for the next write-back to report.
func (h *Handle) MarkDirty(lsn page.LSN) {
	if fn := h.pool.getHooks().OnMarkDirty; fn != nil {
		fn(h.id)
	}
	h.f.metaMu.Lock()
	defer h.f.metaMu.Unlock()
	h.f.updates++
	if !h.f.dirty {
		h.f.dirty = true
		h.f.recLSN = lsn
		h.pool.dirty.Add(1)
	} else if h.f.recLSN == page.ZeroLSN {
		// Freshly created pages are born dirty before their first log
		// record exists; adopt the first logged LSN as the recovery LSN.
		h.f.recLSN = lsn
	}
}

// Dirty reports whether the page has unwritten changes.
func (h *Handle) Dirty() bool {
	return h.f.isDirty()
}

// Release unpins the page.
func (h *Handle) Release() {
	for {
		n := h.f.pins.Load()
		if n <= 0 {
			panic("buffer: release of unpinned handle")
		}
		if h.f.pins.CompareAndSwap(n, n-1) {
			return
		}
	}
}

func (p *Pool) newFrame(id page.ID, pg *page.Page) *frame {
	f := &frame{id: id, pg: pg}
	f.h = Handle{pool: p, id: id, f: f}
	return f
}

// Create installs a brand-new page (freshly allocated logical ID) in the
// pool, pinned and dirty. The caller is responsible for logging the page
// format record and setting the page's LSN.
func (p *Pool) Create(id page.ID, typ page.Type) (*Handle, error) {
	s := p.shardOf(id)
	if _, ok := s.frames.Load(id); ok {
		return nil, fmt.Errorf("buffer: page %d already resident", id)
	}
	if err := p.reserveFrame(); err != nil {
		return nil, err
	}
	f := p.newFrame(id, page.New(id, typ, p.dev.PageSize()))
	f.pins.Store(1)
	f.ref.Store(true)
	f.dirty = true
	// Count the born-dirty frame before it becomes visible: a concurrent
	// flusher that cleans it right after install must never drive the
	// dirty count negative.
	p.dirty.Add(1)
	s.mu.Lock()
	if _, ok := s.frames.Load(id); ok {
		s.mu.Unlock()
		p.unreserve()
		p.dirty.Add(-1)
		return nil, fmt.Errorf("buffer: page %d already resident", id)
	}
	s.installLocked(f)
	s.mu.Unlock()
	return &f.h, nil
}

// Fetch pins page id, loading it if it is not resident. A page has one
// loader at a time: the first fetch to miss claims the load, and every
// fetch that misses while it runs waits for it and shares its outcome —
// the one frame, or the one error. The loader runs the whole Fig. 8 read
// path on its own goroutine: device read, validation and, when a check
// fails, single-page recovery through the Recover hook; "the affected data
// access is merely delayed" (§5.2.3). Only if recovery fails does Fetch
// return an error (wrapping ErrPageFailed) — the caller may then escalate
// to media recovery.
func (p *Pool) Fetch(id page.ID) (*Handle, error) {
	s := p.shardOf(id)
	if v, ok := s.frames.Load(id); ok {
		if f := v.(*frame); f.tryPin() {
			f.ref.Store(true)
			p.stats.hits.Add(1)
			return &f.h, nil
		}
		// Claimed for eviction between Load and tryPin: treat as a miss.
	}
	p.stats.misses.Add(1)
	s.mu.Lock()
	if v, ok := s.frames.Load(id); ok {
		// Installed since the look above. A mapped frame cannot be claimed
		// while we hold the shard mutex, so tryPin only retries against
		// concurrent pinners.
		if f := v.(*frame); f.tryPin() {
			s.mu.Unlock()
			f.ref.Store(true)
			return &f.h, nil
		}
	}
	if l, ok := s.loads[id]; ok {
		l.waiters++
		s.mu.Unlock()
		<-l.done
		if l.err != nil {
			return nil, l.err
		}
		return &l.f.h, nil // the loader pinned it for us
	}
	l := &load{done: make(chan struct{})}
	s.loads[id] = l
	s.mu.Unlock()

	l.f, l.err = p.loadPage(id)
	s.mu.Lock()
	delete(s.loads, id)
	if l.err == nil {
		// One pin for this fetch and one for each waiter, taken before the
		// frame is visible: no eviction can slip in between the install and
		// a waiter's wake-up.
		l.f.pins.Store(1 + l.waiters)
		s.installLocked(l.f)
	}
	s.mu.Unlock()
	close(l.done)
	if l.err != nil {
		return nil, l.err
	}
	return &l.f.h, nil
}

// loadPage brings page id in and returns its frame, not yet installed. The
// page's slot decides what happens to the slot (§5.2.3):
//
//   - the image passes every check: it is the page;
//   - the image is sound but stale, and recovery rebuilt the page on it:
//     the slot returned a true version of its page, so it works — the
//     binding stays and write-back overwrites it in place;
//   - the slot gave nothing recovery could build on (unreadable, damaged,
//     refused by the engine, or not a version of the page after all): the
//     page is taken off it and the slot retired; write-back allocates;
//   - the page has no slot (never written, or its device was replaced):
//     nothing is read and nothing retired; recovery rebuilds it from its
//     backup alone.
//
// A recovered page is installed dirty. The frame's capacity is reserved
// last, so a loader busy with a recovery holds nothing another fetch's
// reserveFrame would have to wait out.
func (p *Pool) loadPage(id page.ID) (*frame, error) {
	if !p.pmap.Known(id) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPage, id)
	}
	hooks := p.getHooks()
	phys, bound := p.pmap.Lookup(id)
	var pg *page.Page
	var failure error
	if bound {
		if pg, failure = p.readAndValidate(id, phys, hooks); failure != nil {
			p.stats.validationFailures.Add(1)
		}
	} else {
		failure = fmt.Errorf("%w: %d", ErrNeverWritten, id)
		if hooks.Recover == nil {
			return nil, failure
		}
	}
	if failure != nil {
		var err error
		if pg, err = p.recoverFailedPage(id, phys, bound, pg, hooks, failure); err != nil {
			return nil, err
		}
	}
	if err := p.reserveFrame(); err != nil {
		return nil, err
	}
	f := p.newFrame(id, pg)
	f.ref.Store(true)
	if failure != nil {
		// The device does not hold the recovered page yet: keep it dirty so
		// write-back persists it.
		f.dirty = true
		f.recLSN = pg.LSN()
		p.dirty.Add(1)
	}
	return f, nil
}

// readAndValidate performs the Fig. 8 read path: device read, in-page
// verification, and the engine's PageLSN cross-check. The device image
// lands in a page-sized buffer the decoded page takes over, so a miss
// allocates once and copies the image once. A failed device read is
// re-read at once, at most readRetries times, before it counts as a single-page failure: a one-shot fault then
// costs a second read instead of a full recovery. Nothing here sleeps, arms
// a timer or yields — a caller is waiting on this read, and on an idle P
// even a 100µs sleep costs a millisecond. An image only the engine's
// cross-check refused is returned beside the error: it is sound, and
// recovery may build on it.
func (p *Pool) readAndValidate(id page.ID, phys storage.PhysID, hooks *Hooks) (*page.Page, error) {
	buf := make([]byte, p.dev.PageSize())
	err := p.dev.ReadInto(phys, buf)
	for r := 0; err != nil && r < p.readRetries; r++ {
		if hooks.OnReadRetry != nil {
			hooks.OnReadRetry(id)
		}
		err = p.dev.ReadInto(phys, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("device read of page %d (slot %d): %w", id, phys, err)
	}
	pg, err := page.DecodeFor(id, buf)
	if err == nil {
		// The structured-payload plausibility check (§4.2): offsets, entry
		// shape and key order are validated once, here, so the engines'
		// in-place binary searches never run over an unchecked image.
		err = pg.Check()
	}
	if err != nil {
		return nil, fmt.Errorf("in-page checks of page %d (slot %d): %w", id, phys, err)
	}
	if hooks.Validate != nil {
		if err := hooks.Validate(pg); err != nil {
			return pg, fmt.Errorf("cross-check of page %d: %w", id, err)
		}
	}
	return pg, nil
}

// recoverFailedPage runs the single-page recovery path for a page whose
// load failed with cause: the Recover hook rebuilds the contents — on have,
// the sound image its slot returned, if recovery can use it — and a slot
// (phys, when bound) that gave recovery nothing to build on loses the page
// and is retired (§5.2.3).
func (p *Pool) recoverFailedPage(id page.ID, phys storage.PhysID, bound bool, have *page.Page, hooks *Hooks, cause error) (*page.Page, error) {
	if hooks.Recover == nil {
		p.stats.escalations.Add(1)
		return nil, fmt.Errorf("%w: %v (no recovery configured)", ErrPageFailed, cause)
	}
	pg, fromHave, err := hooks.Recover(id, have)
	if err != nil {
		if !bound && errors.Is(err, ErrNeverWritten) {
			return nil, err
		}
		p.stats.escalations.Add(1)
		return nil, fmt.Errorf("%w: %v; recovery failed: %v", ErrPageFailed, cause, err)
	}
	if bound && !fromHave {
		// Never reuse the failed location, and never record it as a backup.
		p.pmap.Unbind(id)
		p.dev.RetireSlot(phys)
	}
	p.stats.recoveries.Add(1)
	return pg, nil
}

// reserveFrame acquires the right to install one frame: either free
// capacity exists, or the clock frees a victim and its slot transfers to
// the caller (used is not decremented). Callers that fail to install must
// call unreserve.
//
// A failed eviction sweep is not immediately ErrPoolFull: capacity may be
// held by loads that have reserved but not yet installed (their frames are
// not evictable because they do not exist yet). A load reserves only once
// its page is read and repaired, so those resolve within a few scheduler
// quanta; spin briefly before declaring the pool full, which is then the
// durable everything-pinned condition.
func (p *Pool) reserveFrame() error {
	const sweeps = 64
	for attempt := 0; ; attempt++ {
		u := p.used.Load()
		if u < int64(p.capacity) {
			if p.used.CompareAndSwap(u, u+1) {
				return nil
			}
			continue // lost the CAS race; not a failed sweep
		}
		evicted, err := p.evictOne()
		if err != nil {
			return err
		}
		if evicted {
			return nil
		}
		if attempt >= sweeps {
			return ErrPoolFull
		}
		runtime.Gosched()
	}
}

func (p *Pool) unreserve() { p.used.Add(-1) }

// evictOne runs the clock over the shards, starting at a rotating shard,
// until one victim is freed. The freed slot remains accounted in used (it
// transfers to the caller's reservation).
func (p *Pool) evictOne() (bool, error) {
	start := p.rotor.Add(1)
	for i := 0; i < len(p.shards); i++ {
		s := p.shards[(start+uint64(i))&uint64(len(p.shards)-1)]
		evicted, err := p.evictFromShard(s)
		if err != nil || evicted {
			return evicted, err
		}
	}
	return false, nil
}

// evictFromShard advances the shard's clock hand looking for an unpinned,
// unreferenced victim, flushing it first if dirty (Fig. 11: the completed-
// write hook runs before the frame is truly evicted).
func (p *Pool) evictFromShard(s *shard) (bool, error) {
	s.mu.Lock()
	// Two sweeps: the first clears reference bits, the second finds a
	// victim unless everything is pinned or re-referenced.
	limit := 2*len(s.ring) + 2
	for a := 0; a < limit; a++ {
		if len(s.ring) == 0 {
			break
		}
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		f := s.ring[s.hand]
		s.hand++
		if f.pins.Load() != 0 {
			continue
		}
		if f.ref.Swap(false) {
			continue // second chance
		}
		if f.isDirty() {
			// Write back outside the shard mutex so the completed-write
			// hook (which appends log records and updates the page
			// recovery index) runs without pool locks.
			s.mu.Unlock()
			err := p.flushFrame(f, false)
			s.mu.Lock()
			if err != nil {
				s.mu.Unlock()
				return false, err
			}
			// The shard was unlocked during the write: re-validate the
			// victim before claiming it.
			if v, ok := s.frames.Load(f.id); !ok || v.(*frame) != f || f.isDirty() {
				continue
			}
		}
		if !f.pins.CompareAndSwap(0, pinsDead) {
			continue
		}
		if f.isDirty() {
			// Dirtied between the check and the claim (pin, MarkDirty,
			// Release): give the frame back and keep scanning.
			f.pins.Store(0)
			continue
		}
		s.removeLocked(f)
		s.mu.Unlock()
		p.stats.evictions.Add(1)
		return true, nil
	}
	s.mu.Unlock()
	return false, nil
}

// flushFrame writes a dirty frame back to the device, observing the
// write-ahead-log protocol (force the log up to the PageLSN first) and the
// Fig. 11 sequence (completed-write records appended before the frame can
// be evicted). It takes no shard lock; per-frame flushMu serializes
// concurrent flushers of the same page.
func (p *Pool) flushFrame(f *frame, wait bool) error {
	recs, _, err := p.writeBack(f, wait)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		p.log.Append(rec)
	}
	return nil
}

// writeBack is the core of a frame flush: WAL force, write target
// resolution, encode, device write, the completed-write notification, and
// the clean transition — all serialized per frame by flushMu, so
// the engine sees each page's writes in order. It returns the log records
// the engine wants appended for this write (the caller appends them,
// singly or batched) and whether a write actually happened.
//
// An eviction passes wait false: it writes nothing rather than wait for the
// frame's flush lock or latch, and leaves the frame dirty. Its victim was
// unpinned when chosen, but a thread may have pinned and latched it since
// and be waiting, latch held, for the very load the eviction makes room
// for.
func (p *Pool) writeBack(f *frame, wait bool) ([]*wal.Record, bool, error) {
	if wait {
		f.flushMu.Lock()
	} else if !f.flushMu.TryLock() {
		return nil, false, nil
	}
	defer f.flushMu.Unlock()
	// Exclude concurrent page mutators while encoding: updaters mutate
	// content (including SetLSN) only under the write latch. MarkDirty may
	// trail the latch release; the worst case is encoding a fully-updated
	// image and then seeing the trailing dirty mark, which re-flushes the
	// same image — never a lost update.
	if wait {
		f.latch.RLock()
	} else if !f.latch.TryRLock() {
		return nil, false, nil
	}
	if !f.isDirty() {
		f.latch.RUnlock()
		return nil, false, nil
	}
	// WAL protocol: no dirty page reaches the database before its log — nor
	// ever, once a crash sealed the log below the page's records.
	if err := p.log.Flush(f.pg.LSN()); err != nil {
		f.latch.RUnlock()
		return nil, false, fmt.Errorf("buffer: flush of page %d: %w", f.id, err)
	}
	dst, err := p.pmap.WriteTarget(f.id)
	if err != nil {
		f.latch.RUnlock()
		return nil, false, fmt.Errorf("buffer: flush of page %d: %w", f.id, err)
	}
	buf := p.getScratch()
	f.pg.EncodeInto(*buf)
	lsn := f.pg.LSN()
	err = p.dev.Write(dst, *buf)
	for errors.Is(err, storage.ErrBadSlot) {
		// The slot was retired before a crash: the retirement is the
		// device's and is not logged, so the map restart rebuilt can hand
		// it out again. It is never the page's; take another — a retired
		// slot never returns to the allocator, so this ends.
		p.pmap.Unbind(f.id)
		if dst, err = p.pmap.WriteTarget(f.id); err == nil {
			err = p.dev.Write(dst, *buf)
		}
	}
	p.putScratch(buf)
	if err != nil {
		f.latch.RUnlock()
		return nil, false, fmt.Errorf("buffer: flush of page %d to slot %d: %w", f.id, dst, err)
	}
	p.stats.writes.Add(1)
	// Crash point: the page image is on the device but its completed-write
	// record is not yet logged — the Fig. 12 "page written, PRI update
	// lost" window.
	chaos.At("buffer.writeback")
	// The engine's index learns of the write before the frame turns clean:
	// a checkpoint that finds the page out of the dirty page table then
	// snapshots an index that already names this image.
	var recs []*wal.Record
	if hooks := p.getHooks(); hooks.CompleteWrite != nil {
		recs = hooks.CompleteWrite(WriteInfo{
			Page: f.id, PageLSN: lsn, Dest: dst, Image: f.pg, Updates: f.takeUpdates(),
		})
	}
	p.setClean(f)
	f.latch.RUnlock()
	return recs, true, nil
}

// FlushBatch writes back up to max dirty frames as one batch: the log is
// forced once for the whole group (per-frame forces become no-ops unless a
// page was updated mid-batch), and the batch's completed-write records are
// appended as one grouped reserve-fill block (wal.AppendBatch) instead of
// one append per page. Frames are gathered round-robin across shards so
// concurrent flusher workers spread out. Returns the number of pages
// written.
//
// FlushBatch is the background flusher's drain primitive; it is safe to
// run concurrently with foreground traffic, evictions, and checkpoints:
// per-frame flushMu serializes double flushes and keeps each page's
// completed-write notifications in write order, and frames dirtied
// mid-batch stay dirty and are caught by the next drain.
func (p *Pool) FlushBatch(max int) (int, error) {
	if max <= 0 || p.dirty.Load() == 0 {
		return 0, nil
	}
	victims := make([]*frame, 0, max)
	start := p.rotor.Add(1)
	for i := 0; i < len(p.shards) && len(victims) < max; i++ {
		s := p.shards[(start+uint64(i))&uint64(len(p.shards)-1)]
		s.frames.Range(func(_, v any) bool {
			f := v.(*frame)
			if f.isDirty() {
				victims = append(victims, f)
			}
			return len(victims) < max
		})
	}
	if len(victims) == 0 {
		return 0, nil
	}
	// One sequential force covers every victim's PageLSN (they are all
	// already published); the per-frame force inside writeBack then only
	// fires for pages updated after this point.
	p.log.FlushAll()
	var recs []*wal.Record
	wrote := 0
	var firstErr error
	for _, f := range victims {
		r, did, err := p.writeBack(f, true)
		if err != nil {
			firstErr = err
			break
		}
		if did {
			wrote++
			recs = append(recs, r...)
		}
	}
	if len(recs) > 0 {
		p.log.AppendBatch(recs)
	}
	return wrote, firstErr
}

// FlushPages writes back the named pages (skipping any no longer resident
// — eviction already flushed those) with one log force and one grouped
// append of the completed-write records. Checkpoints use it to flush the
// dirty page table without paying per-page log appends, and without racing
// the background flusher: whichever reaches a frame first cleans it, the
// other skips it.
func (p *Pool) FlushPages(ids []page.ID) error {
	if len(ids) == 0 {
		return nil
	}
	p.log.FlushAll()
	var recs []*wal.Record
	var firstErr error
	for _, id := range ids {
		v, ok := p.shardOf(id).frames.Load(id)
		if !ok {
			continue
		}
		r, _, err := p.writeBack(v.(*frame), true)
		if err != nil {
			firstErr = err
			break
		}
		recs = append(recs, r...)
	}
	if len(recs) > 0 {
		p.log.AppendBatch(recs)
	}
	return firstErr
}

// FlushPage writes page id back if it is resident and dirty.
func (p *Pool) FlushPage(id page.ID) error {
	v, ok := p.shardOf(id).frames.Load(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotResident, id)
	}
	return p.flushFrame(v.(*frame), true)
}

// FlushAll writes every dirty page back (checkpoint support). Pages pinned
// by concurrent transactions are flushed too — pins guard residency, not
// cleanliness; callers serialize content mutation via page latches. The
// writes ride the batched path: one log force and one grouped
// write-complete delivery per shard's worth of dirty pages.
func (p *Pool) FlushAll() error {
	var ids []page.ID
	for _, s := range p.shards {
		s.frames.Range(func(_, v any) bool {
			f := v.(*frame)
			if f.isDirty() {
				ids = append(ids, f.id)
			}
			return true
		})
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return p.FlushPages(ids)
}

// Evict removes page id from the pool, flushing it first if dirty. It
// fails if the page is pinned.
func (p *Pool) Evict(id page.ID) error {
	s := p.shardOf(id)
	v, ok := s.frames.Load(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotResident, id)
	}
	f := v.(*frame)
	if n := f.pins.Load(); n > 0 {
		return fmt.Errorf("%w: %d (%d pins)", ErrPinned, id, n)
	}
	for attempt := 0; attempt < 8; attempt++ {
		if err := p.flushFrame(f, true); err != nil {
			return err
		}
		s.mu.Lock()
		if v, ok := s.frames.Load(id); !ok || v.(*frame) != f {
			s.mu.Unlock()
			return nil // replaced while the hook ran
		}
		if !f.pins.CompareAndSwap(0, pinsDead) {
			s.mu.Unlock()
			return fmt.Errorf("%w: %d (pinned during flush)", ErrPinned, id)
		}
		if f.isDirty() {
			// Re-dirtied between flush and claim: release the claim and
			// flush again.
			f.pins.Store(0)
			s.mu.Unlock()
			continue
		}
		s.removeLocked(f)
		s.mu.Unlock()
		p.used.Add(-1)
		p.stats.evictions.Add(1)
		return nil
	}
	return fmt.Errorf("%w: %d (kept being re-dirtied)", ErrPinned, id)
}

// DirtyPageEntry is one row of the dirty page table for checkpoints.
type DirtyPageEntry struct {
	Page   page.ID
	RecLSN page.LSN
	// PageLSN is the frame's page LSN when the row was read: the newest
	// chain record applied to the page, i.e. its chain head at that moment.
	PageLSN page.LSN
}

// DirtyPages returns the current dirty page table, sorted by page ID. Each
// frame is read under its shared latch (latch, then metaMu — the order
// MarkDirty and writeBack use): an updater logs its record, applies it and
// marks the frame dirty under the write latch, so a row can neither miss a
// page whose record is already in the log nor carry a page LSN from the
// middle of an update.
func (p *Pool) DirtyPages() []DirtyPageEntry {
	var out []DirtyPageEntry
	for _, s := range p.shards {
		s.frames.Range(func(_, v any) bool {
			f := v.(*frame)
			f.latch.RLock()
			f.metaMu.Lock()
			if f.dirty {
				out = append(out, DirtyPageEntry{Page: f.id, RecLSN: f.recLSN, PageLSN: f.pg.LSN()})
			}
			f.metaMu.Unlock()
			f.latch.RUnlock()
			return true
		})
	}
	sortDirty(out)
	return out
}

func sortDirty(d []DirtyPageEntry) {
	sort.Slice(d, func(i, j int) bool { return d[i].Page < d[j].Page })
}

// Crash discards all buffered pages without flushing, simulating the loss
// of volatile state in a system failure. The dirty count resets with them;
// the pool is dead after a crash (the engine builds a fresh one at
// restart), so stragglers still holding handles cannot meaningfully skew
// it.
func (p *Pool) Crash() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.frames.Range(func(k, _ any) bool {
			s.frames.Delete(k)
			return true
		})
		n := int64(len(s.ring))
		s.ring = nil
		s.hand = 0
		s.count.Store(0)
		s.mu.Unlock()
		p.used.Add(-n)
	}
	p.dirty.Store(0)
}

// IsResident reports whether page id is currently buffered.
func (p *Pool) IsResident(id page.ID) bool {
	_, ok := p.shardOf(id).frames.Load(id)
	return ok
}

// IsDirty reports whether page id is resident with unwritten changes.
// Non-resident pages report false: eviction flushes before dropping the
// frame, so absence implies the device holds the page's latest image. The
// frame is read under its shared latch, like a DirtyPages row: an update
// whose record is logged but whose frame is not yet marked counts.
func (p *Pool) IsDirty(id page.ID) bool {
	v, ok := p.shardOf(id).frames.Load(id)
	if !ok {
		return false
	}
	f := v.(*frame)
	f.latch.RLock()
	defer f.latch.RUnlock()
	return f.isDirty()
}
