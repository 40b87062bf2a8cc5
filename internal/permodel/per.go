// Package permodel predicts packet error rate (PER) versus SNR for the
// modem's rates. The throughput experiments (paper Figs. 17-18) simulate
// thousands of packet transmissions; running the full waveform PHY for each
// would be prohibitive, so the MAC-level simulators consume this model: a
// standard union-bound analysis of the 802.11 convolutional code over
// hard-decision demapping, driven by per-subcarrier SNRs. The model is
// validated against the in-repo waveform PHY (see tests and the calibration
// bench), which is the honest link back to first principles.
package permodel

import (
	"math"

	"repro/internal/dsp"
	"repro/internal/modem"
)

// UncodedBER returns the raw bit error rate of hard-decision demapping for
// one subcarrier at the given linear SNR, using the standard Gray-coded
// M-QAM approximations.
func UncodedBER(m modem.Modulation, snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	switch m {
	case modem.BPSK:
		return qfunc(math.Sqrt(2 * snr))
	case modem.QPSK:
		return qfunc(math.Sqrt(snr))
	case modem.QAM16:
		return 0.75 * qfunc(math.Sqrt(snr/5))
	case modem.QAM64:
		return 7.0 / 12 * qfunc(math.Sqrt(snr/21))
	}
	panic("permodel: unknown modulation")
}

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// Distance spectra of the 802.11 convolutional code (K=7, 133/171) and its
// punctured variants: c_d is the total information-bit weight of all paths
// at Hamming distance d from the all-zero path, starting at dFree. These are
// the standard published values used in 802.11 performance analyses.
var spectra = [...]struct {
	dFree int
	cd    []float64
}{
	modem.Rate12: {10, []float64{36, 0, 211, 0, 1404, 0, 11633, 0, 77433, 0, 502690}},
	modem.Rate23: {6, []float64{3, 70, 285, 1276, 6160, 27128, 117019}},
	modem.Rate34: {5, []float64{42, 201, 1492, 10469, 62935, 379644}},
}

// maxDist is the largest Hamming distance any spectrum reaches.
const maxDist = 20

// binomTab[n][k] is binom(n, k) for every distance a spectrum reaches.
var binomTab = func() (t [maxDist + 1][maxDist + 1]float64) {
	for n := range t {
		for k := range t[n] {
			t[n][k] = binom(n, k)
		}
	}
	return t
}()

// powTab holds p^k and (1-p)^k for one crossover probability p, each entry
// a math.Pow of exactly the arguments the closed-form union bound passes.
type powTab struct{ p, q [maxDist + 1]float64 }

// pairwiseError returns the probability that the Viterbi decoder prefers a
// path at Hamming distance d when the hard-decision channel has crossover
// probability 0 < p < 0.5, reading the powers of p and 1-p from t: a
// majority of the d positions flip, half the ties break wrong.
func pairwiseError(d int, t *powTab) float64 {
	b := &binomTab[d]
	var sum float64
	if d%2 == 1 {
		for k := (d + 1) / 2; k <= d; k++ {
			sum += b[k] * t.p[k] * t.q[d-k]
		}
		return sum
	}
	for k := d/2 + 1; k <= d; k++ {
		sum += b[k] * t.p[k] * t.q[d-k]
	}
	sum += 0.5 * b[d/2] * t.p[d/2] * t.q[d/2]
	return sum
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// CodedBitErrorBound returns the union-bound post-Viterbi bit error
// probability for crossover probability p at the given code rate. Each
// power of p and 1-p is computed once per call, not once per term.
func CodedBitErrorBound(p float64, code modem.CodeRate) float64 {
	if code < 0 || int(code) >= len(spectra) {
		panic("permodel: unknown code rate")
	}
	s := &spectra[code]
	var pb float64
	switch {
	case p <= 0: // no crossovers: every pairwise error is 0
	case p >= 0.5: // a coin flip: every pairwise error is 1/2
		for _, c := range s.cd {
			if c != 0 {
				pb += c * 0.5
			}
		}
	default:
		// pairwiseError reads p^k for k >= ceil(d/2) and (1-p)^k for
		// k <= d/2, over dFree <= d <= dMax.
		var t powTab
		dMax := s.dFree + len(s.cd) - 1
		for k := s.dFree / 2; k <= dMax; k++ {
			t.p[k] = math.Pow(p, float64(k))
		}
		for k := 0; k <= dMax/2; k++ {
			t.q[k] = math.Pow(1-p, float64(k))
		}
		for i, c := range s.cd {
			if c != 0 {
				pb += c * pairwiseError(s.dFree+i, &t)
			}
		}
	}
	if pb > 0.5 {
		pb = 0.5
	}
	return pb
}

// PER returns the packet error rate of a payload of payloadBytes bytes
// (plus CRC) at the given rate, where perBinSNR lists the linear SNR of
// each data subcarrier. The interleaver spreads coded bits uniformly over
// subcarriers, so the channel's crossover probability is the mean raw BER
// across bins.
func PER(rate modem.Rate, payloadBytes int, perBinSNR []float64) float64 {
	if len(perBinSNR) == 0 {
		return 1
	}
	var p float64
	for _, s := range perBinSNR {
		p += UncodedBER(rate.Mod, s)
	}
	p /= float64(len(perBinSNR))
	pb := CodedBitErrorBound(p, rate.Code)
	bits := float64((payloadBytes + 4) * 8)
	per := 1 - math.Pow(1-pb, bits)
	if per < 0 {
		per = 0
	}
	if per > 1 {
		per = 1
	}
	return per
}

// FlatPER is PER over a flat channel at the given SNR in dB.
func FlatPER(cfg *modem.Config, rate modem.Rate, payloadBytes int, snrDB float64) float64 {
	bins := make([]float64, cfg.NumData())
	lin := dsp.FromDB(snrDB)
	for i := range bins {
		bins[i] = lin
	}
	return PER(rate, payloadBytes, bins)
}

// JointSNR combines per-subcarrier SNRs of concurrent synchronized senders:
// with orthogonal space-time combining the post-combiner SNR per bin is the
// sum of the senders' individual SNRs (power gain + diversity; paper §8.2).
func JointSNR(perSender [][]float64) []float64 {
	if len(perSender) == 0 {
		return nil
	}
	n := len(perSender[0])
	out := make([]float64, n)
	for _, s := range perSender {
		for i, v := range s {
			out[i] += v
		}
	}
	return out
}
