package hw

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/app"
)

// refCPU is the map + sort.Float64s summation the aggregator used
// before its scratch buffers: the reference for bit-exact totals.
func refCPU(g *Aggregator, uid app.UID) float64 {
	var utils []float64
	for _, e := range g.entries {
		if e.uid == uid {
			utils = append(utils, e.demand.CPUUtil)
		}
	}
	sort.Float64s(utils)
	var total float64
	for _, u := range utils {
		total += u
	}
	return total
}

// refAudit is the allocating Audit the scratch version replaced, kept
// verbatim so the first reported inconsistency can be compared.
func refAudit(g *Aggregator) error {
	want := make(map[app.UID][]float64)
	for _, e := range g.entries {
		want[e.uid] = append(want[e.uid], e.demand.CPUUtil)
	}
	uids := make([]app.UID, 0, len(want)+len(g.cpu))
	for uid := range want {
		uids = append(uids, uid)
	}
	for uid := range g.cpu {
		if _, ok := want[uid]; !ok {
			uids = append(uids, uid)
		}
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	for _, uid := range uids {
		utils := want[uid]
		sort.Float64s(utils)
		var total float64
		for _, u := range utils {
			total += u
		}
		cached, ok := g.cpu[uid]
		if total == 0 && ok {
			return fmt.Errorf("hw: aggregator caches cpu %v for uid %d with no contributing demand", cached, uid)
		}
		if total != 0 && cached != total {
			return fmt.Errorf("hw: aggregator cached cpu %v for uid %d, live entries sum to %v", cached, uid, total)
		}
		clamped := total
		if clamped > 1 {
			clamped = 1
		}
		if got := g.meter.CPUUtil(uid); got != clamped {
			return fmt.Errorf("hw: meter cpu %v for uid %d, aggregator expects %v", got, uid, clamped)
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestAggregatorMatchesReference drives random Set/Clear streams, with
// occasional corruption of the CPU cache or the meter behind the
// aggregator's back. After every op, CPUUtil of each UID whose cache
// was not corrupted since its last recompute must equal the reference
// sum bit for bit, and Audit must report exactly what the reference
// reports, including which inconsistency it finds first.
func TestAggregatorMatchesReference(t *testing.T) {
	uids := []app.UID{10001, 10002, 10003, 10004, 10005}
	for seed := int64(1); seed <= 20; seed++ {
		_, m, g := aggFixture(t)
		rng := rand.New(rand.NewSource(seed))
		keys := make([]*int, 12)
		for i := range keys {
			keys[i] = new(int)
		}
		owner := make(map[*int]app.UID)
		corrupt := make(map[app.UID]bool) // cache written behind the aggregator
		util := func() float64 {
			switch rng.Intn(6) {
			case 0:
				return 0
			case 1:
				return 0.25 // exact duplicates across entries
			case 2:
				return 1 + rng.Float64() // clamped to 1
			default:
				return rng.Float64() * 0.7
			}
		}
		for op := 0; op < 400; op++ {
			k := keys[rng.Intn(len(keys))]
			uid, held := owner[k]
			if !held {
				uid = uids[rng.Intn(len(uids))]
			}
			victim := uids[rng.Intn(len(uids))]
			switch r := rng.Intn(20); {
			case r < 11:
				d := Demand{CPUUtil: util(), GPS: rng.Intn(4) == 0, Audio: rng.Intn(5) == 0}
				if err := g.Set(k, uid, d); err != nil {
					t.Fatalf("seed %d op %d: Set: %v", seed, op, err)
				}
				owner[k] = uid
				delete(corrupt, uid)
			case r < 17:
				if err := g.Clear(k); err != nil {
					t.Fatalf("seed %d op %d: Clear: %v", seed, op, err)
				}
				if held {
					delete(owner, k)
					delete(corrupt, uid)
				}
			case r == 17:
				g.cpu[victim] = util()
				corrupt[victim] = true
			case r == 18:
				delete(g.cpu, victim)
				corrupt[victim] = true
			default:
				m.SetCPUUtil(victim, util())
			}
			for _, u := range uids {
				if corrupt[u] {
					continue
				}
				if got, want := g.CPUUtil(u), refCPU(g, u); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d op %d uid %d: CPUUtil %v, reference sum %v", seed, op, u, got, want)
				}
			}
			if got, want := errText(g.Audit()), errText(refAudit(g)); got != want {
				t.Fatalf("seed %d op %d: Audit %q, reference %q", seed, op, got, want)
			}
		}
	}
}
