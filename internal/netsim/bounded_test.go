package netsim_test

// Settles have two scan arms: the indexed-candidate arm (memoized grid
// candidate lists) and the all-flows arm (every flow's live and recent
// transmissions), which InterferenceRangeM <= 0 selects. Bounding is an
// access-path change only: with InterferenceRangeM covering the whole
// floor, the indexed arm must reproduce the all-flows arm draw-for-draw
// on randomized topologies.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// boundedSpec is one randomized flow of the equivalence harness.
type boundedSpec struct {
	tx, rx  testbed.Point
	snr     float64
	packets int
	ft      float64
	placed  bool
	acked   bool
}

// runBounded drains one randomized topology with the given interference
// range and fingerprints everything the run produced.
func runBounded(seed int64, specs []boundedSpec, cs, capture, ixRange float64) string {
	cfg := modem.Profile80211()
	s := netsim.New(mac.Default(cfg), rand.New(rand.NewSource(seed)))
	s.CSRangeM = cs
	s.CaptureDB = capture
	s.InterferenceRangeM = ixRange
	s.Env = testbed.Default(cfg)
	for i, sp := range specs {
		sp := sp
		remaining := sp.packets
		f := &netsim.Flow{
			Name:       fmt.Sprint(i),
			Acked:      sp.acked,
			HasTraffic: func() bool { return remaining > 0 },
			Prepare:    func(rng *rand.Rand) int { return rng.Intn(3) },
			FrameTime:  func(r int) float64 { return sp.ft * float64(r+1) },
			Deliver: func(rng *rand.Rand, r int, ix netsim.Interference) bool {
				return rng.Float64() < 0.9*ix.SNRScale && ix.SINRdB > -10
			},
			Done: func(r int, ok bool, air float64) { remaining-- },
		}
		if sp.placed {
			f.Radio = &netsim.Radio{TxPos: sp.tx, RxPos: sp.rx, SNRdB: sp.snr}
		}
		s.AddFlow(f)
	}
	s.Run()
	out := fmt.Sprintf("now=%.9f busy=%.9f acq=%d coll=%d hid=%d\n", s.Now(), s.BusyTime(), s.Acquisitions, s.CollisionRounds, s.HiddenCorruptions)
	for _, f := range s.Flows {
		out += fmt.Sprintf("%s d=%d dr=%d at=%d co=%d ca=%d hl=%d air=%.9f\n", f.Name, f.Delivered, f.Dropped, f.Attempts, f.Collisions, f.Captures, f.HiddenLosses, f.AirTime)
	}
	return out
}

func TestBoundedInterferenceMatchesUnbounded(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		var specs []boundedSpec
		nCells := 1 + rng.Intn(5)
		clients := 1 + rng.Intn(4)
		for c := 0; c < nCells; c++ {
			cx, cy := rng.Float64()*300, rng.Float64()*300
			ap := testbed.Point{X: cx, Y: cy}
			for k := 0; k < clients; k++ {
				cl := testbed.Point{X: cx + rng.Float64()*40 - 20, Y: cy + rng.Float64()*40 - 20}
				specs = append(specs, boundedSpec{
					tx: ap, rx: cl, snr: 10 + rng.Float64()*20,
					packets: 5 + rng.Intn(10), ft: 5e-4 + rng.Float64()*1e-3,
					placed: true, acked: rng.Intn(4) > 0,
				})
			}
		}
		// A couple of unplaced flows (heard everywhere), like routed flows.
		for k := 0; k < rng.Intn(3); k++ {
			specs = append(specs, boundedSpec{packets: 3 + rng.Intn(6), ft: 5e-4 + rng.Float64()*1e-3, acked: rng.Intn(2) == 0})
		}
		cs := 30 + rng.Float64()*60
		// The floor spans at most ~340 m diagonally plus the 20 m client
		// offset; 1000 m bounds nothing, so the indexed arm must visit
		// exactly the transmissions the all-flows arm visits.
		got := runBounded(int64(trial), specs, cs, 10, 1000)
		want := runBounded(int64(trial), specs, cs, 10, 0)
		if got != want {
			t.Fatalf("trial %d (cells=%d clients=%d cs=%.1f): indexed-candidate arm (range 1000) diverged from all-flows arm (range 0):\nindexed:\n%s\nall-flows:\n%s",
				trial, nCells, clients, cs, got, want)
		}
	}
}
