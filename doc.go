// Package repro is the root of a full reproduction of Graefe and Kuno,
// "Definition, Detection, and Recovery of Single-Page Failures, a Fourth
// Class of Database Failures" (PVLDB 5(7): 646-655, 2012).
//
// ARCHITECTURE.md at the repository root is the layer-by-layer map —
// which package owns which invariant, the paper section each subsystem
// implements, the page layout, what a failure costs in time and space, and
// how everything is measured. Start there; this comment only says where
// things live.
//
//   - repro/spf is the public engine API: open a database, create B-tree
//     or linear-hash indexes behind one Engine seam, run transactions,
//     inject faults, crash, restart, recover media. Its package doc covers
//     choosing an engine.
//   - internal/core is the paper's primary contribution: the page recovery
//     index and single-page recovery (backup image + per-page log chain).
//   - internal/{page,storage,pagemap,buffer,wal,txn,pageop,btree,hashindex}
//     are the substrate, implemented from scratch: the checksummed packed
//     page layout, the fault-injecting device, the sharded buffer pool that
//     verifies every read, the reserve-then-fill log with group commit, and
//     the two index engines.
//   - internal/{recovery,restore,backup,archive,maintenance} are recovery
//     and its upkeep: ARIES restart and media recovery in their instant
//     (on-demand) form, the background repair scheduler, backup sets, the
//     bounded log lifecycle (the live log is truncated behind every full
//     backup, and the optional archive keeps chain history past the
//     checkpoint), background write-back and scrubbing.
//   - internal/{server,metrics} and cmd/{spfserver,spfload,spfverify} are
//     the wire front end, its load harness and the metrics endpoint.
//   - internal/chaos is the deterministic crash-point injection the
//     model-based checker in spf (checker_test.go) drives.
//
// Measurement is declared once per kind. internal/experiments.Table is the
// paper's figures E1–E16; internal/bench.Table is the engine
// micro-benchmarks with their GOMAXPROCS, declared allocation counts and
// shape criteria. bench_test.go at this root loops over both for `go test
// -bench`, cmd/spfbench runs them as a CLI and, with -bench, as the CI
// gate, which compares rows of one run only. The repo benchmark — five
// wire and recovery workloads measured from outside the process — is the
// program under benchmark/, declared by BENCHMARK.json.
package repro
