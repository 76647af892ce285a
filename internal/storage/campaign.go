package storage

import (
	"maps"
	"math"
	"math/rand"
	"slices"
)

// Campaign describes a latent-sector-error fault campaign modeled on the
// field statistics the paper cites (Bairavasundaram et al., SIGMETRICS
// 2007): a fraction of devices develop errors; errors within a device show
// strong spatial locality, appearing in runs of neighboring sectors; and
// most are discovered by reads or scrubbing, not writes.
type Campaign struct {
	// Rate is the fraction of the written extent's slots to afflict (e.g.
	// 0.001 for 1‰), rounded to the nearest count; a positive rate afflicts
	// at least one slot, and a rate of 1 or more every slot.
	Rate float64
	// ClusterSize is the mean run length of neighboring bad slots;
	// values <= 1 produce independent single-slot errors.
	ClusterSize int
	// Kind is the fault to inject; default FaultReadError (the classic
	// latent sector error). Use FaultSilentCorruption for the silent
	// variant of the FAST 2008 study.
	Kind FaultKind
	// Sticky keeps faults armed after they fire (permanent damage).
	Sticky bool
	// Seed makes the campaign reproducible.
	Seed int64
}

// Apply injects the campaign's faults over the device's written extent —
// the slot table, which ends at the highest slot ever written, as a scrub
// sweep does — and returns the afflicted slots in ascending order. Slots
// past it hold nothing a read could find damaged, so a device nothing was
// written to is left alone.
func (c Campaign) Apply(d *Device) []PhysID {
	n := d.extent()
	if n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(c.Seed))
	kind := c.Kind
	if kind == FaultNone {
		kind = FaultReadError
	}
	cluster := c.ClusterSize
	if cluster < 1 {
		cluster = 1
	}
	target := min(int(math.Round(float64(n)*c.Rate)), n)
	if target < 1 && c.Rate > 0 {
		target = 1
	}
	hit := make(map[PhysID]bool, target)
	for len(hit) < target {
		start := PhysID(rng.Intn(n))
		run := 1
		if cluster > 1 {
			// Geometric run length with mean ~= cluster.
			for run < cluster*4 && rng.Float64() < 1-1/float64(cluster) {
				run++
			}
		}
		for i := 0; i < run && len(hit) < target; i++ {
			id := start + PhysID(i)
			if int(id) >= n || hit[id] {
				continue
			}
			hit[id] = true
			d.InjectFault(id, kind, c.Sticky)
		}
	}
	return slices.Sorted(maps.Keys(hit))
}
