package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// refIndoorTaps is NewIndoor as a standalone allocating draw: Rayleigh
// taps normalized by the summed power-delay profile, then for LOS the
// scatter scaling, the line-of-sight phasor and a second normalization.
// The shared tap-fill code must reproduce it bit for bit.
func refIndoorTaps(rng *rand.Rand, fs, spreadNs, kFactorDB float64) []complex128 {
	decayTaps := spreadNs * 1e-9 * fs
	nTaps := int(math.Ceil(4*decayTaps)) + 1
	if nTaps < 1 {
		nTaps = 1
	}
	power := func(taps []complex128) float64 {
		pdp := make([]float64, len(taps))
		for i, t := range taps {
			pdp[i] = real(t)*real(t) + imag(t)*imag(t)
		}
		var p float64
		for _, v := range pdp {
			p += v
		}
		return p
	}
	taps := make([]complex128, nTaps)
	for i := range taps {
		p := math.Exp(-float64(i) / math.Max(decayTaps, 1e-9))
		g := math.Sqrt(p / 2)
		taps[i] = complex(rng.NormFloat64()*g, rng.NormFloat64()*g)
	}
	norm := 1 / math.Sqrt(power(taps))
	for i := range taps {
		taps[i] *= complex(norm, 0)
	}
	if kFactorDB <= 0 {
		return taps
	}
	k := dsp.FromDB(kFactorDB)
	s := math.Sqrt(1 / (1 + k))
	for i := range taps {
		taps[i] *= complex(s, 0)
	}
	phase := rng.Float64() * 2 * math.Pi
	taps[0] += cmplx.Rect(math.Sqrt(k/(1+k)), phase)
	n := complex(1/math.Sqrt(power(taps)), 0)
	for i := range taps {
		taps[i] *= n
	}
	return taps
}

func TestIndoorDrawsMatchReferenceBitForBit(t *testing.T) {
	for _, fs := range []float64{20e6, 128e6} {
		for _, k := range []float64{0, 6} {
			for trial := int64(0); trial < 20; trial++ {
				want := rand.New(rand.NewSource(trial))
				ref := refIndoorTaps(want, fs, 50, k)
				next := want.Int63()

				var scratch [64]complex128
				for _, d := range []struct {
					name string
					draw func(*rand.Rand) []complex128
				}{
					{"NewIndoor", func(r *rand.Rand) []complex128 { return NewIndoor(r, fs, 50, k).Taps }},
					{"DrawIndoor(scratch)", func(r *rand.Rand) []complex128 { return DrawIndoor(r, scratch[:0], fs, 50, k) }},
					{"DrawIndoor(short)", func(r *rand.Rand) []complex128 { return DrawIndoor(r, scratch[:0:1], fs, 50, k) }},
				} {
					name := d.name
					rng := rand.New(rand.NewSource(trial))
					got := d.draw(rng)
					if len(got) != len(ref) {
						t.Fatalf("%s fs=%g K=%g: %d taps, reference %d", name, fs, k, len(got), len(ref))
					}
					for i := range got {
						if math.Float64bits(real(got[i])) != math.Float64bits(real(ref[i])) ||
							math.Float64bits(imag(got[i])) != math.Float64bits(imag(ref[i])) {
							t.Fatalf("%s fs=%g K=%g trial %d tap %d: %v, reference %v", name, fs, k, trial, i, got[i], ref[i])
						}
					}
					if rng.Int63() != next {
						t.Fatalf("%s fs=%g K=%g trial %d: RNG state diverged from the reference", name, fs, k, trial)
					}
				}
			}
		}
	}
}

func TestDrawIndoorIntoScratchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var scratch [64]complex128
	m := NewIndoor(rng, 128e6, 50, 6)
	if n := testing.AllocsPerRun(100, func() {
		DrawIndoor(rng, scratch[:0], 128e6, 50, 6)
		m.Power()
	}); n != 0 {
		t.Fatalf("DrawIndoor into scratch + Power allocate %v per call, want 0", n)
	}
}
