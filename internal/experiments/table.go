package experiments

import (
	"fmt"

	"repro/internal/report"
)

// Experiment is one row of the paper-figure index.
type Experiment struct {
	// ID is "E1" … "E16"; Title names the figure or section reproduced.
	ID, Title string
	// Run executes the experiment at the one parameter set the row fixes
	// and checks the shape of the result — who wins, by what rough factor,
	// where the crossovers fall. The table comes back even when the shape
	// check fails, so the caller can show what was measured.
	Run func() (*report.Table, error)
}

// Table is the single declaration of E1–E16. `go test -bench Experiments`,
// `spfbench` and `spfbench -list` all iterate it; nothing else names an
// experiment's parameters.
var Table = []Experiment{
	{"E1", "Figure 1 — failure scopes and escalation", func() (*report.Table, error) {
		res, err := E01FailureEscalation(64)
		if err != nil {
			return nil, err
		}
		// At realistic database sizes single-page recovery is orders of
		// magnitude cheaper than the media-failure escalation, and loses
		// only one page.
		if res.SinglePage*100 > res.MediaAtScale {
			return res.Table, fmt.Errorf("single-page %v not clearly cheaper than media-at-scale %v", res.SinglePage, res.MediaAtScale)
		}
		if res.PagesLostSPF != 1 || res.PagesLostMedia <= 1 {
			return res.Table, fmt.Errorf("scope wrong: spf=%d media=%d", res.PagesLostSPF, res.PagesLostMedia)
		}
		return res.Table, nil
	}},
	{"E2", "Figure 2 — symmetric fence keys", func() (*report.Table, error) {
		res, err := E02FenceInvariants(3000)
		if err != nil {
			return nil, err
		}
		if res.Violations != 0 || !res.Detected {
			return res.Table, fmt.Errorf("violations=%d detected=%v", res.Violations, res.Detected)
		}
		return res.Table, nil
	}},
	{"E3", "Figure 3 — Foster B-tree foster relationships", func() (*report.Table, error) {
		res, err := E03FosterVerification(6000)
		if err != nil {
			return nil, err
		}
		if res.Violations != 0 {
			return res.Table, fmt.Errorf("violations=%d", res.Violations)
		}
		// Splits created foster relationships and adoption drained them all.
		if res.FostersPeak == 0 || res.FostersFinal != 0 {
			return res.Table, fmt.Errorf("splits=%d fosters left=%d", res.FostersPeak, res.FostersFinal)
		}
		return res.Table, nil
	}},
	{"E4", "Figure 4 — optimized system recovery", func() (*report.Table, error) {
		res, err := E04RedoOptimization(32)
		if err != nil {
			return nil, err
		}
		// Logged completed writes reduce redo page reads.
		if res.ReadsWith >= res.ReadsWithout {
			return res.Table, fmt.Errorf("redo reads with=%d not below without=%d", res.ReadsWith, res.ReadsWithout)
		}
		return res.Table, nil
	}},
	{"E5", "Figure 5 — user vs system transactions", func() (*report.Table, error) {
		res, err := E05SystemTxnOverhead(50, 40)
		if err != nil {
			return nil, err
		}
		// Exactly one force per user commit; splits force nothing.
		if res.UserForces != res.UserCommits || res.SysCommits == 0 {
			return res.Table, fmt.Errorf("forces=%d users=%d sys=%d", res.UserForces, res.UserCommits, res.SysCommits)
		}
		return res.Table, nil
	}},
	{"E6", "Figures 6+9 — per-page chain and PRI staleness", func() (*report.Table, error) {
		res, err := E06PerPageChain(30)
		if err != nil {
			return nil, err
		}
		if res.ChainLength != 30 || !res.StaleWhileDirty || !res.CurrentAfterWrite {
			return res.Table, fmt.Errorf("chain=%d stale=%v current=%v", res.ChainLength, res.StaleWhileDirty, res.CurrentAfterWrite)
		}
		return res.Table, nil
	}},
	{"E7", "Figure 7 — page recovery index size", func() (*report.Table, error) {
		res, err := E07PRISize([]int{1000, 10000, 100000, 1000000})
		if err != nil {
			return nil, err
		}
		// Worst case near the paper's ~16 B/page; compression far below it.
		if res.WorstBytesPerPage > 20 || res.CompressedBytesPerPage > 1 {
			return res.Table, fmt.Errorf("worst=%.1f compressed=%.3f", res.WorstBytesPerPage, res.CompressedBytesPerPage)
		}
		return res.Table, nil
	}},
	{"E8", "Figure 8 — read-path detection outcomes", func() (*report.Table, error) {
		res, err := E08ReadPathDetection()
		if err != nil {
			return nil, err
		}
		for fault, ok := range res.DetectedAndRecovered {
			if !ok {
				return res.Table, fmt.Errorf("fault %q not detected+recovered", fault)
			}
		}
		if !res.LostWriteCaughtOnlyWithCrossCheck {
			return res.Table, fmt.Errorf("PageLSN cross-check ablation shape wrong")
		}
		return res.Table, nil
	}},
	{"E9", "Figure 9 — recovery readiness", func() (*report.Table, error) {
		res, err := E09RecoveryReadiness()
		if err != nil {
			return nil, err
		}
		if !res.EntryExact || !res.Recovered {
			return res.Table, fmt.Errorf("exact=%v recovered=%v", res.EntryExact, res.Recovered)
		}
		return res.Table, nil
	}},
	{"E10", "Figure 10 + §6 — recovery latency vs chain length", func() (*report.Table, error) {
		chains := []int{1, 10, 50, 200, 1000}
		res, err := E10RecoveryLatency(chains)
		if err != nil {
			return nil, err
		}
		// Work equals updates since backup; dozens of records stay within
		// the paper's ~1 s expectation.
		for _, n := range chains {
			if res.RecordsApplied[n] != n {
				return res.Table, fmt.Errorf("chain %d applied %d", n, res.RecordsApplied[n])
			}
		}
		if res.SimTimes[50].Seconds() > 2 {
			return res.Table, fmt.Errorf("50-record recovery took %v, paper expects ~1 s", res.SimTimes[50])
		}
		if res.SimTimes[10] >= res.SimTimes[200] {
			return res.Table, fmt.Errorf("recovery time not increasing with chain length")
		}
		return res.Table, nil
	}},
	{"E11", "Figure 11 — PRI update sequence crash windows", func() (*report.Table, error) {
		res, err := E11UpdateSequence()
		if err != nil {
			return nil, err
		}
		if !res.AllSafe {
			return res.Table, fmt.Errorf("a crash window lost a committed update")
		}
		return res.Table, nil
	}},
	{"E12", "Figure 12 — restart recovery actions", func() (*report.Table, error) {
		res, err := E12RestartActions()
		if err != nil {
			return nil, err
		}
		if res.PRIRepairs == 0 {
			return res.Table, fmt.Errorf("no lost PRI updates repaired; Fig. 12 row 3 not exercised")
		}
		return res.Table, nil
	}},
	{"E13", "§6 — recovery time by failure class", func() (*report.Table, error) {
		res, err := E13RecoveryTimeByClass(48)
		if err != nil {
			return nil, err
		}
		// §6: single-page recovery is closest to transaction rollback and
		// far below media recovery at realistic sizes.
		if res.SinglePage >= res.MediaAtScale {
			return res.Table, fmt.Errorf("single-page %v not below media-at-scale %v", res.SinglePage, res.MediaAtScale)
		}
		if res.SinglePage.Seconds() > 2 {
			return res.Table, fmt.Errorf("single-page recovery %v exceeds ~1 s expectation", res.SinglePage)
		}
		return res.Table, nil
	}},
	{"E14", "§6 — backup policy sweep", func() (*report.Table, error) {
		// No interval divides the update count, so every row replays a
		// nonzero remainder: the updates since the policy's last backup
		// (7, 17, 17), or the whole history without the policy.
		const updates = 317
		intervals := []int{10, 25, 100, -1} // -1: never
		res, err := E14BackupPolicySweep(intervals, updates)
		if err != nil {
			return nil, err
		}
		for _, n := range intervals {
			want := updates
			if n > 0 {
				want = updates % n
			}
			if res.Applied[n] != want {
				return res.Table, fmt.Errorf("backup every %d: replayed %d records, want %d (all: %v)", n, res.Applied[n], want, res.Applied)
			}
		}
		return res.Table, nil
	}},
	{"E15", "§2 — mirroring baseline comparison", func() (*report.Table, error) {
		res, err := E15MirrorBaseline(5000)
		if err != nil {
			return nil, err
		}
		// The mirror processes vastly more log than the chain walk (the
		// paper's §2 criticism).
		if res.MirrorBytes < 10*res.SPRBytes {
			return res.Table, fmt.Errorf("mirror %d bytes vs SPR %d: factor too small", res.MirrorBytes, res.SPRBytes)
		}
		return res.Table, nil
	}},
	{"E16", "§1 — silent corruption campaign", func() (*report.Table, error) {
		res, err := E16SilentCorruption(12)
		if err != nil {
			return nil, err
		}
		if !res.DetectedOnFirstRead {
			return res.Table, fmt.Errorf("silent corruption served wrong answers")
		}
		if res.RepairedOnRead == 0 || res.ColdPagesFoundByScrub == 0 {
			return res.Table, fmt.Errorf("hot=%d cold=%d: both detection channels must fire",
				res.RepairedOnRead, res.ColdPagesFoundByScrub)
		}
		return res.Table, nil
	}},
}
