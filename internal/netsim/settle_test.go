package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/testbed"
)

// The settle scan skips a candidate whose latest air end (airHi) is at or
// before the frame's start. The skip tests plant interval histories on a
// hidden-terminal pair and settle one frame of flow a, in both scan arms,
// checking each verdict against the parent scan: the same settle with
// every airHi raised to +Inf, so no candidate is skipped. The last test
// pins the per-position pricing of the indexed arm's candidate lists.

const (
	skipStart = 1e-3 // a's frame is on the air over [skipStart, skipStart+skipFT)
	skipFT    = 1e-3
)

// settleA settles a's frame after plant has recorded b's history, and
// returns a fingerprint of everything the settle decides: the interference
// handed to the delivery draw, a's outcome counters and decode margins,
// the busy time, and the RNG state afterwards.
func settleA(ixRange float64, parentScan bool, plant func(s *Sim, b *Flow)) string {
	cfg := modem.Profile80211()
	s := New(mac.Default(cfg), rand.New(rand.NewSource(5)))
	s.CSRangeM = 50
	s.InterferenceRangeM = ixRange
	s.Env = testbed.Default(cfg)
	s.Model = NewRateAware(cfg, modem.StandardRates(), 1000)
	a := s.AddFlow(placedFlow("a", 1, skipFT, testbed.Point{X: 0, Y: 0}, testbed.Point{X: 58, Y: 0}, 25))
	b := s.AddFlow(placedFlow("b", 1, skipFT, testbed.Point{X: 60, Y: 0}, testbed.Point{X: 2, Y: 0}, 25))
	var got Interference
	a.Deliver = func(rng *rand.Rand, _ int, ix Interference) bool {
		got = ix
		return rng.Float64() < 0.5
	}
	s.ensureIndex()
	plant(s, b)

	r := s.newTx()
	r.f, r.start, r.ft, r.cost, r.airEnd = a, skipStart, skipFT, skipFT, skipStart+skipFT
	s.curTx[a.idx] = r
	s.airHi[a.idx] = r.airEnd
	s.now = r.airEnd
	if parentScan {
		for i := range s.airHi {
			s.airHi[i] = math.Inf(1)
		}
	}
	s.resolve(r)
	return fmt.Sprintf("ix=%+v collisions=%d captures=%d hidden=%d delivered=%d corruption=%+v busy=%x next=%d",
		got, a.Collisions, a.Captures, a.HiddenLosses, a.Delivered, a.RateCorruption, s.busy, s.Rng.Int63())
}

// pastOnly records one finished interval for b under radio and sets airHi
// the way the scheduler does.
func pastOnly(radio func(b *Flow) *Radio, start, airEnd float64) func(*Sim, *Flow) {
	return func(s *Sim, b *Flow) {
		s.flowPast[b.idx] = []pastTx{{radio: radio(b), start: start, airEnd: airEnd}}
		s.airHi[b.idx] = airEnd
	}
}

func ownRadio(b *Flow) *Radio { return b.Radio }

var scanArms = []struct {
	name    string
	ixRange float64
}{{"indexed", 200}, {"all-flows", 0}}

func TestSettleSkipsIntervalEndingAtFrameStart(t *testing.T) {
	quiet := func(*Sim, *Flow) {}
	touching := pastOnly(ownRadio, skipStart-skipFT, skipStart)
	overlapping := pastOnly(ownRadio, skipStart-skipFT/2, skipStart+skipFT/2)
	for _, arm := range scanArms {
		clean := settleA(arm.ixRange, false, quiet)
		got := settleA(arm.ixRange, false, touching)
		if want := settleA(arm.ixRange, true, touching); got != want {
			t.Fatalf("%s: touching interval settled\n  %s\nparent scan\n  %s", arm.name, got, want)
		}
		if got != clean {
			t.Fatalf("%s: an interval ending at the frame's start interfered:\n  %s\nclean\n  %s", arm.name, got, clean)
		}
		// The skip fires at equality: with airHi pinned to the frame's
		// start, even an overlapping interval behind it goes unscanned.
		hidden := func(s *Sim, b *Flow) {
			overlapping(s, b)
			s.airHi[b.idx] = skipStart
		}
		if got := settleA(arm.ixRange, false, hidden); got != clean {
			t.Fatalf("%s: candidate with airHi == frame start was scanned:\n  %s\nclean\n  %s", arm.name, got, clean)
		}
		// And the planted overlap does interfere once the skip is off.
		if settleA(arm.ixRange, false, overlapping) == clean {
			t.Fatalf("%s: overlapping hidden interval left no mark on the settle", arm.name)
		}
	}
}

func TestSettlePricesSupersededRadioDirectly(t *testing.T) {
	// b sent its last frame from (60,0), then moved to (70,0) — still a
	// hidden terminal within interference range of a's receiver — and the
	// index was rebuilt. The interval it sent before the move must be
	// priced from the radio it was sent under, not from b's cached price.
	var old *Radio
	moved := func(s *Sim, b *Flow) {
		old = b.Radio
		b.Radio = &Radio{TxPos: testbed.Point{X: 70, Y: 0}, RxPos: b.Radio.RxPos, SNRdB: b.Radio.SNRdB}
		s.Reindex()
	}
	underOld := func(s *Sim, b *Flow) {
		moved(s, b)
		pastOnly(func(*Flow) *Radio { return old }, skipStart-skipFT/2, skipStart+skipFT/2)(s, b)
	}
	underNew := func(s *Sim, b *Flow) {
		moved(s, b)
		pastOnly(ownRadio, skipStart-skipFT/2, skipStart+skipFT/2)(s, b)
	}
	for _, arm := range scanArms {
		got := settleA(arm.ixRange, false, underOld)
		if want := settleA(arm.ixRange, true, underOld); got != want {
			t.Fatalf("%s: superseded-radio interval settled\n  %s\nparent scan\n  %s", arm.name, got, want)
		}
		if got == settleA(arm.ixRange, false, underNew) {
			t.Fatalf("%s: interval sent under the superseded radio was priced at the new position:\n  %s", arm.name, got)
		}
	}
}

func TestIxCandsPricePerPositionMatchesDirect(t *testing.T) {
	// Candidate lists price each distinct transmitter position once per
	// build. Mix flows that share a transmitter (downlinks of one AP),
	// flows that share a receiver but not a transmitter (uplinks into one
	// AP) and unplaced flows, and check every entry against its own direct
	// pricing, bit for bit.
	cfg := modem.Profile80211()
	s := New(mac.Default(cfg), rand.New(rand.NewSource(1)))
	s.CSRangeM = 40
	s.InterferenceRangeM = 120
	s.Env = testbed.Default(cfg)
	s.Model = NewRateAware(cfg, modem.StandardRates(), 1000)
	rng := rand.New(rand.NewSource(2))
	for ap := 0; ap < 6; ap++ {
		apPos := testbed.Point{X: 35 * float64(ap), Y: 10 * float64(ap%2)}
		for c := 0; c < 4; c++ {
			client := testbed.Point{X: apPos.X + rng.Float64()*30 - 15, Y: apPos.Y + rng.Float64()*30 - 15}
			s.AddFlow(placedFlow("down", 1, 1e-3, apPos, client, 20))
			s.AddFlow(placedFlow("up", 1, 1e-3, client, apPos, 20))
		}
	}
	s.AddFlow(backloggedFlow("unplaced", 1, 1e-3, 1))
	s.ensureIndex()
	hits := 0
	for _, f := range s.Flows {
		if f.Radio == nil {
			continue
		}
		cands := s.buildIxCands(f)
		seen := map[testbed.Point]bool{}
		for _, c := range cands {
			g := s.Flows[c.fi]
			wantCS, wantPow := s.inRange(f, g.Radio), 0.0
			if g.Radio != nil {
				d := testbed.Dist(g.Radio.TxPos, f.Radio.RxPos)
				wantPow = math.Pow(10, s.Env.MeanSNRdB(d)/10)
				if seen[g.Radio.TxPos] {
					hits++
				}
				seen[g.Radio.TxPos] = true
			}
			if c.inCS != wantCS || math.Float64bits(c.pow) != math.Float64bits(wantPow) {
				t.Fatalf("flow %d candidate %d: (inCS %v, pow %v), direct (%v, %v)", f.idx, c.fi, c.inCS, c.pow, wantCS, wantPow)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no candidate list reused a position's price")
	}
}
