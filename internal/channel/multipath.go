// Package channel emulates the indoor wireless channel the SourceSync
// testbed ran over: sample-spaced multipath with Rayleigh or Rician taps and
// an exponential power-delay profile, AWGN, log-distance path loss with
// shadowing, per-oscillator carrier frequency offsets, and a Medium that
// mixes the emissions of several concurrent transmitters at each receiver
// with fractional-sample propagation delays.
package channel

import (
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/dsp"
)

// Multipath is a sample-spaced tap-delay-line channel.
type Multipath struct {
	Taps []complex128
}

// NewRayleigh draws a Rayleigh-fading multipath channel with nTaps taps and
// an exponential power-delay profile with the given decay constant (in
// taps). The realized tap power is normalized to exactly 1: small-scale
// fading shows up per subcarrier (frequency selectivity) while large-scale
// power variation is modeled separately by shadowing in the path loss model,
// keeping link budgets controlled in experiments.
func NewRayleigh(rng *rand.Rand, nTaps int, decayTaps float64) *Multipath {
	taps := make([]complex128, max(nTaps, 1))
	fillRayleigh(rng, taps, decayTaps)
	return &Multipath{Taps: taps}
}

// NewRician is like NewRayleigh but adds a deterministic line-of-sight
// component on the first tap with the given K-factor (dB): the ratio of LOS
// power to total scattered power.
func NewRician(rng *rand.Rand, nTaps int, decayTaps, kFactorDB float64) *Multipath {
	taps := make([]complex128, max(nTaps, 1))
	fillRician(rng, taps, decayTaps, kFactorDB)
	return &Multipath{Taps: taps}
}

// fillRayleigh draws NewRayleigh's taps into taps (len >= 1).
func fillRayleigh(rng *rand.Rand, taps []complex128, decayTaps float64) {
	for i := range taps {
		p := math.Exp(-float64(i) / math.Max(decayTaps, 1e-9))
		g := math.Sqrt(p / 2)
		taps[i] = complex(rng.NormFloat64()*g, rng.NormFloat64()*g)
	}
	norm := 1 / math.Sqrt(tapsPower(taps))
	for i := range taps {
		taps[i] *= complex(norm, 0)
	}
}

// fillRician draws NewRician's taps into taps (len >= 1): the Rayleigh
// draw, then the line-of-sight phase.
func fillRician(rng *rand.Rand, taps []complex128, decayTaps, kFactorDB float64) {
	fillRayleigh(rng, taps, decayTaps)
	k := dsp.FromDB(kFactorDB)
	// Scattered power is currently 1; scale so scattered + LOS = 1.
	scatter := 1 / (1 + k)
	los := k / (1 + k)
	s := math.Sqrt(scatter)
	for i := range taps {
		taps[i] *= complex(s, 0)
	}
	phase := rng.Float64() * 2 * math.Pi
	taps[0] += cmplx.Rect(math.Sqrt(los), phase)
	// Renormalize the realized power (LOS and scatter add incoherently only
	// in expectation).
	norm := complex(1/math.Sqrt(tapsPower(taps)), 0)
	for i := range taps {
		taps[i] *= norm
	}
}

// Flat returns a single-tap unit channel (no multipath).
func Flat() *Multipath {
	return &Multipath{Taps: []complex128{1}}
}

// NewIndoor draws a channel whose RMS delay spread is roughly spreadNs at
// sample rate fs. Line-of-sight placements should pass a positive K-factor.
func NewIndoor(rng *rand.Rand, fs, spreadNs, kFactorDB float64) *Multipath {
	return &Multipath{Taps: DrawIndoor(rng, nil, fs, spreadNs, kFactorDB)}
}

// DrawIndoor draws the taps of NewIndoor's channel — the same RNG draws,
// bit for bit — into the prefix of taps and returns that prefix. When cap
// (taps) is short of the tap count it allocates instead, so a caller with
// a large enough scratch array draws a channel without allocating.
func DrawIndoor(rng *rand.Rand, taps []complex128, fs, spreadNs, kFactorDB float64) []complex128 {
	decayTaps := spreadNs * 1e-9 * fs
	nTaps := max(int(math.Ceil(4*decayTaps))+1, 1)
	if cap(taps) < nTaps {
		taps = make([]complex128, nTaps)
	}
	taps = taps[:nTaps]
	if kFactorDB > 0 {
		fillRician(rng, taps, decayTaps, kFactorDB)
	} else {
		fillRayleigh(rng, taps, decayTaps)
	}
	return taps
}

// Apply convolves x with the channel, returning len(x)+len(Taps)-1 samples.
func (m *Multipath) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x)+len(m.Taps)-1)
	for i, t := range m.Taps {
		if t == 0 {
			continue
		}
		for j, v := range x {
			out[i+j] += t * v
		}
	}
	return out
}

// FreqResponse returns the channel's frequency response on an nfft-point
// grid (FFT bin order).
func (m *Multipath) FreqResponse(nfft int) []complex128 {
	t := make([]complex128, nfft)
	copy(t, m.Taps)
	return dsp.FFT(t)
}

// PowerDelayProfile returns |tap|^2 per tap index.
func (m *Multipath) PowerDelayProfile() []float64 {
	out := make([]float64, len(m.Taps))
	for i, t := range m.Taps {
		out[i] = tapPower(t)
	}
	return out
}

// Power returns the total tap power (1.0 for freshly drawn channels).
func (m *Multipath) Power() float64 { return tapsPower(m.Taps) }

// tapPower is |t|^2.
func tapPower(t complex128) float64 { return real(t)*real(t) + imag(t)*imag(t) }

// tapsPower sums |tap|^2 in tap order.
func tapsPower(taps []complex128) float64 {
	var p float64
	for _, t := range taps {
		p += tapPower(t)
	}
	return p
}

// RMSDelaySpread returns the root-mean-square delay spread in taps.
func (m *Multipath) RMSDelaySpread() float64 {
	pdp := m.PowerDelayProfile()
	var p, mean float64
	for i, v := range pdp {
		p += v
		mean += float64(i) * v
	}
	if p == 0 {
		return 0
	}
	mean /= p
	var sq float64
	for i, v := range pdp {
		d := float64(i) - mean
		sq += d * d * v
	}
	return math.Sqrt(sq / p)
}
