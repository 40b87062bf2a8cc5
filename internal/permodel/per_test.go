package permodel

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/testbed"
)

func TestUncodedBERKnownValues(t *testing.T) {
	// BPSK at 9.6 dB -> ~1e-5 (classic waterfall point ~9.6 dB for 1e-5).
	ber := UncodedBER(modem.BPSK, dsp.FromDB(9.6))
	if ber < 1e-6 || ber > 1e-4 {
		t.Fatalf("BPSK@9.6dB BER = %g", ber)
	}
	// At 0 SNR everything is a coin flip.
	if UncodedBER(modem.QAM64, 0) != 0.5 {
		t.Fatal("zero SNR must give 0.5")
	}
}

func TestUncodedBEROrdering(t *testing.T) {
	// At any fixed SNR, denser constellations have higher BER.
	for _, snrDB := range []float64{5, 10, 15, 20} {
		s := dsp.FromDB(snrDB)
		b := UncodedBER(modem.BPSK, s)
		q := UncodedBER(modem.QPSK, s)
		q16 := UncodedBER(modem.QAM16, s)
		q64 := UncodedBER(modem.QAM64, s)
		if !(b <= q && q <= q16 && q16 <= q64) {
			t.Fatalf("snr %v: ordering violated %g %g %g %g", snrDB, b, q, q16, q64)
		}
	}
}

func TestCodedBERImprovesOnUncoded(t *testing.T) {
	// Within each code's operating region the coded BER must be far below
	// the raw crossover probability. (The union bound legitimately diverges
	// at high p — rate 3/4 is simply broken at raw BER 1e-2 — so each rate
	// is tested where it is meant to operate.)
	cases := map[modem.CodeRate]float64{
		modem.Rate12: 1e-2,
		modem.Rate23: 3e-3,
		modem.Rate34: 1e-3,
	}
	for _, code := range slices.Sorted(maps.Keys(cases)) {
		p := cases[code]
		c := CodedBitErrorBound(p, code)
		if c >= p/5 {
			t.Fatalf("code %v at p=%g: coded %g, want clear improvement", code, p, c)
		}
	}
	// And stronger codes do better at the same crossover probability.
	c12 := CodedBitErrorBound(5e-3, modem.Rate12)
	c34 := CodedBitErrorBound(5e-3, modem.Rate34)
	if c12 >= c34 {
		t.Fatalf("rate 1/2 (%g) should beat rate 3/4 (%g)", c12, c34)
	}
}

func TestPERMonotoneInSNRProperty(t *testing.T) {
	cfg := modem.Profile80211()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rate := modem.StandardRates()[r.Intn(8)]
		s1 := r.Float64() * 30
		s2 := s1 + r.Float64()*10
		return FlatPER(cfg, rate, 500, s2) <= FlatPER(cfg, rate, 500, s1)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPERLimits(t *testing.T) {
	cfg := modem.Profile80211()
	r6, _ := modem.RateByMbps(6)
	if per := FlatPER(cfg, r6, 1460, 30); per > 1e-6 {
		t.Fatalf("6 Mbps at 30 dB PER = %g", per)
	}
	if per := FlatPER(cfg, r6, 1460, -5); per < 0.99 {
		t.Fatalf("6 Mbps at -5 dB PER = %g", per)
	}
	r54, _ := modem.RateByMbps(54)
	if per := FlatPER(cfg, r54, 1460, 10); per < 0.99 {
		t.Fatalf("54 Mbps at 10 dB PER = %g", per)
	}
}

func TestRateThresholdsOrdered(t *testing.T) {
	// The SNR needed for 10% PER must increase with the rate.
	cfg := modem.Profile80211()
	prev := -100.0
	for _, mbps := range []int{6, 9, 12, 18, 24, 36, 48, 54} {
		rate, _ := modem.RateByMbps(mbps)
		thr := SNRForPER(cfg, rate, 1460, 0.1)
		if thr < prev {
			t.Fatalf("%d Mbps threshold %.2f below previous %.2f", mbps, thr, prev)
		}
		prev = thr
	}
}

func TestJointSNRSumsPower(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	got := JointSNR([][]float64{a, b})
	want := []float64{5, 7, 9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("joint[%d] = %g", i, got[i])
		}
	}
}

func TestJointPERBeatsSinglePER(t *testing.T) {
	// Two senders over independent fading: the joint PER must be lower
	// than either alone at the same per-sender SNR.
	cfg := modem.Profile80211()
	env := testbed.Default(cfg)
	env.DelaySpreadNs = 60
	link := env.LinkAtSNR(8, 10) // NLOS: Rayleigh taps
	rng := rand.New(rand.NewSource(1))
	rate, _ := modem.RateByMbps(12)
	var single, joint float64
	const draws = 200
	for i := 0; i < draws; i++ {
		s1 := make([]float64, cfg.NumData())
		s2 := make([]float64, cfg.NumData())
		link.AddSubcarrierSNRs(rng, s1)
		link.AddSubcarrierSNRs(rng, s2)
		single += PER(rate, 1000, s1) / draws
		joint += PER(rate, 1000, JointSNR([][]float64{s1, s2})) / draws
	}
	if joint >= single {
		t.Fatalf("joint PER %g not better than single %g", joint, single)
	}
}

func TestSubcarrierSNRsShapedByChannel(t *testing.T) {
	// With no delay spread the channel is one unit-power tap, so every
	// data bin carries the link's average SNR; a second draw adds to it.
	cfg := modem.Profile80211()
	env := testbed.Default(cfg)
	env.DelaySpreadNs = 0
	link := env.LinkAtSNR(10, 10)
	rng := rand.New(rand.NewSource(4))
	bins := make([]float64, cfg.NumData())
	for want := 10.0; want <= 20; want += 10 {
		link.AddSubcarrierSNRs(rng, bins)
		for i, v := range bins {
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("bin %d: SNR %g, want %g linear", i, v, want)
			}
		}
	}
}

func TestAnalyticMatchesEmpiricalWaterfall(t *testing.T) {
	// The analytic model and the real waveform PHY must agree on where the
	// waterfall is: for each tested rate, find the analytic 50%-PER SNR and
	// verify the empirical PER is high a few dB below it and low a few dB
	// above it.
	if testing.Short() {
		t.Skip("waveform calibration is slow")
	}
	cfg := modem.Profile80211()
	rng := rand.New(rand.NewSource(2))
	for _, mbps := range []int{6, 24} {
		rate, _ := modem.RateByMbps(mbps)
		mid := SNRForPER(cfg, rate, 200, 0.5)
		below := EmpiricalPER(cfg, rate, 200, mid-4, 25, rng)
		above := EmpiricalPER(cfg, rate, 200, mid+4, 25, rng)
		if below < 0.5 {
			t.Fatalf("%d Mbps: empirical PER %.2f at analytic-mid-4dB, want high", mbps, below)
		}
		if above > 0.2 {
			t.Fatalf("%d Mbps: empirical PER %.2f at analytic-mid+4dB, want low", mbps, above)
		}
	}
}
