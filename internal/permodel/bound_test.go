package permodel

import (
	"math"
	"testing"

	"repro/internal/modem"
)

// refPairwiseError is the closed-form pairwise error probability the
// table-driven bound must reproduce bit for bit: every term recomputes its
// binomial coefficient and both powers.
func refPairwiseError(d int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 0.5 {
		return 0.5
	}
	var sum float64
	if d%2 == 1 {
		for k := (d + 1) / 2; k <= d; k++ {
			sum += binom(d, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(d-k))
		}
		return sum
	}
	for k := d/2 + 1; k <= d; k++ {
		sum += binom(d, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(d-k))
	}
	sum += 0.5 * binom(d, d/2) * math.Pow(p, float64(d/2)) * math.Pow(1-p, float64(d/2))
	return sum
}

// refCodedBitErrorBound is the union bound summed over refPairwiseError.
func refCodedBitErrorBound(p float64, code modem.CodeRate) float64 {
	s := spectra[code]
	var pb float64
	for i, c := range s.cd {
		if c == 0 {
			continue
		}
		pb += c * refPairwiseError(s.dFree+i, p)
	}
	if pb > 0.5 {
		pb = 0.5
	}
	return pb
}

// boundGrid is a log grid of crossover probabilities from 0.5 down into the
// subnormals, plus the edges of the bound's domain.
func boundGrid() []float64 {
	ps := []float64{0, 0.5, math.Nextafter(0.5, 0), 1, math.SmallestNonzeroFloat64}
	for e := -0.3; e > -324; e -= 0.37 {
		ps = append(ps, math.Pow(10, e))
	}
	return ps
}

func TestCodedBitErrorBoundMatchesClosedFormBitForBit(t *testing.T) {
	for _, code := range []modem.CodeRate{modem.Rate12, modem.Rate23, modem.Rate34} {
		for _, p := range boundGrid() {
			got, want := CodedBitErrorBound(p, code), refCodedBitErrorBound(p, code)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("code %v, p=%g: table bound %v (%#x), closed form %v (%#x)",
					code, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestCodedBitErrorBoundRejectsUnknownCode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown code rate did not panic")
		}
	}()
	CodedBitErrorBound(0.1, modem.CodeRate(len(spectra)))
}

func BenchmarkPER(b *testing.B) {
	cfg := modem.Profile80211()
	bins := make([]float64, cfg.NumData())
	for i := range bins {
		bins[i] = 4 + float64(i%7) // a frequency-selective ~7 dB channel
	}
	rates := modem.StandardRates()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		PER(rates[i%len(rates)], 1460, bins)
		i++
	}
}
