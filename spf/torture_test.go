package spf

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// tortureSeeds returns the seed matrix: CHAOS_SEEDS (comma-separated
// integers) when set, else a fixed default. Each seed deterministically
// derives the crash point, the hit count it fires at, the corruption
// victims, and the workload schedule.
func tortureSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3, 4, 5, 6}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// crashPoints are the chaos sites that model an asynchronous system
// failure: the seed rotation picks one per run, and its k-th execution
// signals the crash controller. wal.crash and restart.prep are armed
// in every run for nested fault injection (see runTorture).
// recovery.checkpoint models a crash in the half-taken-checkpoint window
// (dirty pages flushed, checkpoint-end not yet durable), forcing restart
// to replay from the previous master record; recovery.checkpoint.snapshot
// lands it after the checkpoint's snapshots and before its end record, the
// window whose commits and page updates only a scan from the checkpoint's
// begin record can find.
// wal.archive.seal, wal.archive.write, and wal.recycle land the crash
// inside the log lifecycle: between choosing a run boundary and writing
// it, between assembling the run and committing it to the archive, and
// between durably archiving a segment and recycling it — the windows
// where a non-idempotent archiver would lose chain history or double-
// archive records.
var crashPoints = []string{
	"wal.publish", "buffer.writeback", "restore.complete", "recovery.checkpoint",
	"wal.archive.seal", "wal.archive.write", "wal.recycle",
	"recovery.checkpoint.snapshot",
}

// TestChaosTortureCrashRestartVerify loops crash → restart → verify over
// the seed matrix. Invariants checked every iteration, under any crash
// schedule the points produce:
//   - no acked commit is lost (a Commit that returned nil is durable);
//   - an unacked transaction leaves no partial effects behind;
//   - every injected persistent page fault — including one injected
//     mid-crash and one injected mid-restart, so single-page recovery
//     runs inside system recovery — is repaired transparently;
//   - no healthy slot is retired: a crash, a restart and a drain cost no
//     slots, only an injected fault does;
//   - the tree verifies clean and the engine shuts down without leaking
//     goroutines.
func TestChaosTortureCrashRestartVerify(t *testing.T) {
	for _, seed := range tortureSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runTorture(t, seed, true)
		})
	}
}

// TestChaosTortureWithoutArchive runs the torture loop on a database with
// no log archive and no lifecycle loop, crashing at wal.recycle: the only
// recycle is then the one the mid-run full backup makes, so the crash lands
// between that backup's checkpoint and its truncation of the live log.
func TestChaosTortureWithoutArchive(t *testing.T) {
	for _, seed := range tortureSeeds(t) {
		if crashPoints[int(seed)%len(crashPoints)] != "wal.recycle" {
			continue
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runTorture(t, seed, false)
		})
	}
}

func runTorture(t *testing.T, seed int64, archive bool) {
	defer chaos.Reset()
	g0 := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(seed))

	opts := testOptions()
	opts.PoolFrames = 48 // small pool: evictions → write-backs mid-workload
	opts.Restore.Workers = 2
	opts.Seed = seed
	// Log lifecycle on with a tiny run granularity and a fast loop: the
	// torture workload then archives and recycles continuously, so crashes
	// land between archive-write and recycle and acked history must
	// survive chain replays that cross into the archive.
	opts.Lifecycle = LifecycleOptions{
		Enabled:      archive,
		SegmentBytes: 4 << 10,
		Interval:     2 * time.Millisecond,
	}
	if !archive {
		opts.Lifecycle.Interval = -1
	}
	db := openTestDB(t, opts)

	const base = 800
	ix := loadIndex(t, db, "t", base)
	// The same workload also runs against a hash index: every chaos
	// schedule that tortures the B-tree tortures the linear-hashing
	// engine too, through the identical shared machinery.
	hx := loadIndexKind(t, db, "h", KindHash, base)
	// Every page gets a registered backup so any corruption victim is
	// recoverable.
	if _, _, err := db.BackupNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// acked holds the last value whose Commit returned nil; poisoned
	// marks keys touched by a transaction with any non-nil outcome — the
	// crash makes their final value legitimately ambiguous.
	acked := make(map[string][]byte)
	poisoned := make(map[string]bool)
	for i := 0; i < base; i++ {
		acked[string(k(i))] = v(i)
	}

	// Nested-failure arms, active in every run: the first Crash corrupts
	// a stored image from inside the log's seal, and the
	// first Restart corrupts another right after redo preparation — so a
	// persistent single-page fault is present while system recovery runs.
	pages := db.Pages()
	victimCrash := pages[rng.Intn(len(pages))]
	victimPrep := pages[rng.Intn(len(pages))]
	var faults atomic.Int32 // device faults injected: the only reason to retire a slot
	inject := func(id PageID) func(chaos.Hit) {
		return func(chaos.Hit) {
			if db.CorruptPage(id) == nil {
				faults.Add(1)
			}
		}
	}
	chaos.Arm("wal.crash", 1, inject(victimCrash))
	chaos.Arm("restart.prep", 1, inject(victimPrep))

	// The crash point for this run. The action must not block and must
	// not crash synchronously (a crash quiesces the very code path the
	// point lives on); it signals the controller goroutine instead,
	// modeling a real asynchronous failure.
	chosen := crashPoints[int(seed)%len(crashPoints)]
	var fireAt int64
	switch chosen {
	case "wal.publish":
		fireAt = 1 + rng.Int63n(120)
	case "buffer.writeback":
		fireAt = 1 + rng.Int63n(12)
	case "restore.complete":
		fireAt = 1 + rng.Int63n(8)
	case "recovery.checkpoint", "recovery.checkpoint.snapshot":
		// At most two checkpoints run after arming (the mid-workload one
		// and the end-of-restart one); a trip point the schedule never
		// reaches is covered by the manual-crash fallback below.
		fireAt = 1 + rng.Int63n(2)
	case "wal.archive.seal", "wal.archive.write", "wal.recycle":
		// Lifecycle points fire once per archiver pass; the 2ms loop makes
		// a handful of passes over the run, and the fallback covers seeds
		// whose workload outruns the archiver.
		fireAt = 1 + rng.Int63n(3)
		if !archive {
			fireAt = 1 // the mid-run backup's recycle
		}
	}
	crashC := make(chan struct{}, 1)
	// Set once the manual-crash fallback closes crashC: a point whose trip
	// count is first reached during Restart (e.g. recovery.checkpoint at
	// the end-of-restart checkpoint) must not signal a dead controller.
	var manualCrash atomic.Bool
	if chosen != "restore.complete" {
		chaos.Arm(chosen, fireAt, func(chaos.Hit) {
			if manualCrash.Load() {
				return
			}
			select {
			case crashC <- struct{}{}:
			default:
			}
		})
	}
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		if _, ok := <-crashC; ok {
			db.Crash()
		}
	}()

	// Seeded workload: batched updates of existing keys and inserts of
	// fresh ones, with a mid-run flush and checkpoint to generate
	// write-back traffic. Stops at the first crash-induced error.
	next := base
	stopped := false
	for round := 0; round < 60 && !stopped; round++ {
		if round == 15 {
			_ = db.FlushAll() // tolerate ErrCrashed et al.
		}
		if round == 35 {
			_, _ = db.Checkpoint()
		}
		if round == 45 {
			// A mid-run full backup advances the release horizon, so the
			// crash can also land while archived history is being dropped.
			_, _, _ = db.BackupNow()
		}
		tx := db.Begin()
		pending := make(map[string][]byte)
		for op := 0; op < 4 && !stopped; op++ {
			if rng.Intn(2) == 0 {
				i := rng.Intn(base)
				val := []byte(fmt.Sprintf("upd-%d-%d", round, op))
				if err := ix.Update(tx, k(i), val); err != nil {
					stopped = true
					break
				}
				if err := hx.Update(tx, k(i), val); err != nil {
					stopped = true
					break
				}
				pending[string(k(i))] = val
			} else {
				i := next
				next++
				if err := ix.Insert(tx, k(i), v(i)); err != nil {
					stopped = true
					break
				}
				if err := hx.Insert(tx, k(i), v(i)); err != nil {
					stopped = true
					break
				}
				pending[string(k(i))] = v(i)
			}
		}
		if stopped {
			for key := range pending {
				poisoned[key] = true
			}
			break
		}
		if err := db.Commit(tx); err != nil {
			for key := range pending {
				poisoned[key] = true
			}
			stopped = true
			break
		}
		for key, val := range pending {
			acked[key] = val
		}
	}
	if !stopped {
		// The point never fired (schedule-dependent): crash manually so
		// the iteration still exercises restart.
		manualCrash.Store(true)
		close(crashC)
		<-crashed
		db.Crash()
	} else {
		<-crashed
	}

	// Arm the mid-drain crash before Restart when this run targets the
	// restore workers: the point fires while background redo drains, and
	// the main goroutine (polling Fired below) plays crash controller.
	if chosen == "restore.complete" {
		chaos.Arm(chosen, fireAt, func(chaos.Hit) {})
	}

	ndb, rep, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if chosen == "restore.complete" {
		// Wait for the armed hit (it fires on a restore worker during
		// the drain), then crash mid-drain and restart once more.
		deadline := time.Now().Add(5 * time.Second)
		for !chaos.Fired(chosen) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		ndb.Crash()
		ndb, rep, err = ndb.Restart()
		if err != nil {
			t.Fatalf("restart after mid-drain crash: %v", err)
		}
	}
	defer ndb.Close()
	ndb.DrainRestore()

	// Invariant 1: every acked commit survived; unacked keys are either
	// absent or hold a previously acked value (covered by skipping
	// poisoned keys — their rollback correctness is asserted structurally
	// below and by the loser checks in restart_test.go).
	ix2, err := ndb.Index("t")
	if err != nil {
		t.Fatal(err)
	}
	hx2, err := ndb.Index("h")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for key, want := range acked {
		if poisoned[key] {
			continue
		}
		got, err := ix2.Get([]byte(key))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("acked key %q lost after crash at %s#%d: got %q, %v",
				key, chosen, fireAt, got, err)
		}
		hgot, err := hx2.Get([]byte(key))
		if err != nil || !bytes.Equal(hgot, want) {
			t.Fatalf("acked key %q lost from hash index after crash at %s#%d: got %q, %v",
				key, chosen, fireAt, hgot, err)
		}
		checked++
	}
	// Invariant 2: both engines verify clean despite the injected
	// persistent faults.
	if viols, err := ix2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("verify after torture: %v %v", viols, err)
	}
	if viols, err := hx2.Verify(); err != nil || len(viols) != 0 {
		t.Fatalf("hash verify after torture: %v %v", viols, err)
	}
	// Invariant: slots are retired for injected faults only — none in a run
	// that injected none.
	if retired := ndb.Metrics().RetiredSlots; retired > int(faults.Load()) {
		t.Errorf("%d slots retired for %d injected device faults", retired, faults.Load())
	}
	// The always-armed nested-fault points must have fired: wal.crash
	// on the first Crash, restart.prep on the first instant Restart.
	if !chaos.Fired("wal.crash") {
		t.Error("wal.crash never fired despite a crash")
	}
	if rep.OnDemand && !chaos.Fired("restart.prep") {
		t.Error("restart.prep never fired despite an instant restart")
	}
	t.Logf("seed=%d point=%s#%d fired=%v acked-checked=%d poisoned=%d redo=%+v",
		seed, chosen, fireAt, chaos.Fired(chosen), checked, len(poisoned), ndb.Metrics().RestartRedo)

	// Invariant 3: clean shutdown leaks no goroutines.
	if err := ndb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > g0+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > g0+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d at start, %d after close\n%s",
			g0, n, buf[:runtime.Stack(buf, true)])
	}
}
