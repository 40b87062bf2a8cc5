package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/phy"
)

// The phy workload's frame sizes: short frames are the size of the
// fig12/fig13 sync frames, long frames a full 1460 B payload.
const (
	phyShortMin = 40
	phyShortMax = 60
	phyLong     = 1460
	// phyShortPerLong is how many short joint frames a round sends for
	// every long one.
	phyShortPerLong = 2
	// phyNearShare is the share of short frames sent close to their rate's
	// decode threshold; the rest, and every long frame, are comfortably
	// above it, so the decoded-bytes rate counts nearly every long frame
	// and does not swing with a handful of marginal ones.
	phyNearShare = 0.25
	// phySetups is how many times a run times the PHY set-up.
	phySetups = 41
)

// phyProfile is one modem profile with the receivers built for it.
type phyProfile struct {
	cfg   *modem.Config
	joint *phy.JointReceiver
	modem *modem.Receiver
}

// setUpPhy builds the profiles and receivers — everything a PHY user pays
// before the first frame.
func setUpPhy() []*phyProfile {
	var out []*phyProfile
	for _, cfg := range []*modem.Config{modem.Profile80211(), modem.ProfileWiGLAN()} {
		out = append(out, &phyProfile{
			cfg:   cfg,
			joint: &phy.JointReceiver{Cfg: cfg, FFTBackoff: 3},
			modem: &modem.Receiver{Cfg: cfg, FFTBackoff: 3},
		})
	}
	return out
}

// phyFrame is one generated input: the frame's parameters, the channel it
// crosses and its payload. Rebuilding a frame from its seed reproduces it
// exactly, so every round of a run decodes the same waveforms.
type phyFrame struct {
	id      int
	long    bool
	joint   bool // false: the single-sender modem baseline
	payload []byte
	sim     *phy.JointSimConfig // joint frames
	params  modem.FrameParams   // baseline frames
	noise   float64             // baseline frames: receiver noise power
	path    *channel.Multipath  // baseline frames
	rng     *rand.Rand
}

// phyRoundSpec lists one round's frames: for each profile, standard rate
// and sender count (lead+1, lead+2), one long joint frame and
// phyShortPerLong short ones, plus one long single-sender frame per
// profile and rate. The order and every frame's size are fixed — a class's
// short frames spread evenly over phyShortMin..phyShortMax — so every seed
// asks for the same work and the heap grows the same way; the seed draws
// each frame's payload bytes, SNR and channel.
type phyRoundSpec struct {
	prof   int
	rate   int
	numCo  int // 0 marks a baseline frame
	long   bool
	size   int // payload bytes
	seedOf int64
}

func phyRound(seed int64, profiles []*phyProfile) []phyRoundSpec {
	rng := rand.New(rand.NewSource(seed))
	var specs []phyRoundSpec
	for p := range profiles {
		for r := range modem.StandardRates() {
			for _, numCo := range []int{1, 2} {
				specs = append(specs, phyRoundSpec{prof: p, rate: r, numCo: numCo, long: true, size: phyLong})
				for k := 0; k < phyShortPerLong; k++ {
					size := phyShortMin + k*(phyShortMax-phyShortMin)/(phyShortPerLong-1)
					specs = append(specs, phyRoundSpec{prof: p, rate: r, numCo: numCo, size: size})
				}
			}
			specs = append(specs, phyRoundSpec{prof: p, rate: r, long: true, size: phyLong})
		}
	}
	for i := range specs {
		specs[i].seedOf = rng.Int63()
	}
	return specs
}

// buildFrame generates the frame's inputs from its seed: payload bytes,
// SNR (well above the rate's threshold, some short frames near it),
// for joint frames the fig12-style placement — multipath links, residual
// CFOs and co-sender turnaround — scaled to the profile's sample rate.
func buildFrame(id int, s phyRoundSpec, cfg *modem.Config) *phyFrame {
	rng := rand.New(rand.NewSource(s.seedOf))
	rate := modem.StandardRates()[s.rate]
	size := s.size
	margin := 6 + 6*rng.Float64()
	if !s.long && rng.Float64() < phyNearShare {
		margin = 3 * rng.Float64()
	}
	snrDB := decodeThresholdDB(cfg, s.rate, size) + margin
	noise := channel.NoisePowerForSNR(dsp.MeanPower(cfg.LTSTime()), snrDB)
	f := &phyFrame{id: id, long: s.long, joint: s.numCo > 0, payload: make([]byte, size), rng: rng}
	rng.Read(f.payload)
	mk := func() *channel.Multipath { return channel.NewIndoor(rng, cfg.SampleRateHz, 30, 6) }
	if !f.joint {
		f.params = modem.FrameParams{Cfg: cfg, Rate: rate, CP: cfg.CPLen, PayloadLen: size, ScramblerSeed: 0x5d}
		f.noise = noise
		f.path = mk()
		return f
	}
	// fig12's placement is drawn at 128 MHz; scale sample-valued delays
	// and jitter to this profile's clock.
	scale := cfg.SampleRateHz / 128e6
	resid := func() float64 { return channel.PPMToCFO((rng.Float64()*2-1)*0.4, 5.8e9, cfg.SampleRateHz) }
	sim := &phy.JointSimConfig{
		P: phy.JointFrameParams{
			Cfg: cfg, Rate: rate, DataCP: cfg.CPLen, PayloadLen: size, Seed: 0x5d,
			NumCo: s.numCo, LeadID: 1, PacketID: uint16(id),
		},
		Lead:     phy.LeadSim{ResidCFO: resid(), Phase: rng.Float64() * 2 * math.Pi},
		LeadToRx: phy.Link{Gain: 1, Delay: (1 + rng.Float64()*12) * scale, Path: mk()},
		NoiseRx:  noise,
		Rng:      rng,
	}
	for i := 0; i < s.numCo; i++ {
		dLeadCo := (1 + rng.Float64()*10) * scale
		tCoRx := (1 + rng.Float64()*12) * scale
		sim.LeadToCo = append(sim.LeadToCo, phy.Link{Gain: 1, Delay: dLeadCo, Path: mk()})
		sim.CoToRx = append(sim.CoToRx, phy.Link{Gain: 1, Delay: tCoRx, Path: mk()})
		sim.Co = append(sim.Co, phy.CoSenderSim{
			Turnaround:       (600 + rng.Float64()*400) * scale,
			OscCFO:           channel.PPMToCFO((rng.Float64()*2-1)*20, 5.8e9, cfg.SampleRateHz),
			ResidCFO:         resid(),
			Phase:            rng.Float64() * 2 * math.Pi,
			EstDelayFromLead: dLeadCo,
			TxOffset:         sim.LeadToRx.Delay - tCoRx,
			NoisePower:       noise,
			FFTBackoff:       3,
			DetectJitter:     38 * scale,
		})
	}
	f.sim = sim
	return f
}

// decodeThresholdDB is the rate's flat-channel SNR at which the permodel
// PER at this payload size crosses 1/2 (netsim memoizes the table).
func decodeThresholdDB(cfg *modem.Config, rateIdx, size int) float64 {
	return netsim.NewRateAware(cfg, modem.StandardRates(), size).ThresholdsDB[rateIdx]
}

// phyResult is one processed frame.
type phyResult struct {
	long, joint bool
	txMs, rxMs  float64 // synthesis (Run / BuildFrame+channel) and decode
	ok          bool    // CRC passed
	coJoined    int
	slotMisses  int
}

// processFrame synthesizes and decodes one frame, recording spans around
// the calls into phy and modem when tr is set. A frame whose CRC passes
// with a payload other than the one sent is a false pass: an error.
func processFrame(f *phyFrame, pr *phyProfile, tr *tracer) (phyResult, error) {
	r := phyResult{long: f.long, joint: f.joint}
	if f.joint {
		t0 := now()
		tr.begin(kPhySim, f.id)
		run, err := f.sim.Run(f.payload)
		tr.end()
		t1 := now()
		if err != nil {
			return r, fmt.Errorf("frame %d: %v", f.id, err)
		}
		tr.begin(kPhyRx, f.id)
		res, err := pr.joint.Receive(run.RxWave, 0)
		tr.end()
		r.txMs, r.rxMs = ms(t1.Sub(t0)), ms(since(t1))
		for _, j := range run.CoJoined {
			if j {
				r.coJoined++
			}
		}
		r.slotMisses = run.SlotMisses
		if err == nil && res.OK {
			if !bytes.Equal(res.Payload, f.payload) {
				return r, fmt.Errorf("frame %d: CRC passed on a payload other than the one sent", f.id)
			}
			r.ok = true
		}
		return r, nil
	}
	t0 := now()
	tr.begin(kModemTx, f.id)
	wave := modem.BuildFrame(f.params, f.payload)
	tr.end()
	t1 := now()
	// The channel is input generation, not timed: multipath, then noise
	// around the frame.
	const pad = 300
	buf := make([]complex128, pad+len(wave)+len(f.path.Taps)+pad)
	copy(buf[pad:], f.path.Apply(wave))
	channel.AddAWGN(f.rng, buf, f.noise)
	t2 := now()
	tr.begin(kModemRx, f.id)
	payload, ok, _, err := pr.modem.Receive(f.params, buf, 0)
	tr.end()
	r.txMs, r.rxMs = ms(t1.Sub(t0)), ms(since(t2))
	if err == nil && ok {
		if !bytes.Equal(payload, f.payload) {
			return r, fmt.Errorf("frame %d: CRC passed on a payload other than the one sent", f.id)
		}
		r.ok = true
	}
	return r, nil
}

// phyRoundStats is what one round measured.
type phyRoundStats struct {
	results []phyResult
	mallocs uint64
	wall    time.Duration
	spans   []span
	rss     []float64 // resident MiB after each frame
}

// phyFingerprint is a round's exact outcome; every round of a run decodes
// the same frames, so it must repeat.
type phyFingerprint struct {
	frames, crcOK, coJoined, slotMisses, modemOK int
	okMask                                       string
}

func (s phyRoundStats) fingerprint() phyFingerprint {
	var fp phyFingerprint
	mask := make([]byte, len(s.results))
	for i, r := range s.results {
		mask[i] = '0'
		if r.ok {
			mask[i] = '1'
		}
		if !r.joint {
			if r.ok {
				fp.modemOK++
			}
			continue
		}
		fp.frames++
		fp.coJoined += r.coJoined
		fp.slotMisses += r.slotMisses
		if r.ok {
			fp.crcOK++
		}
	}
	fp.okMask = string(mask)
	return fp
}

// runPhyRound regenerates the round's frames from their seeds and
// processes them in order.
func runPhyRound(o *outcome, specs []phyRoundSpec, profiles []*phyProfile, tr *tracer) phyRoundStats {
	frames := make([]*phyFrame, len(specs))
	for i, s := range specs {
		frames[i] = buildFrame(i, s, profiles[s.prof].cfg)
	}
	var st phyRoundStats
	// Every round starts from the same heap: collected, with its free
	// pages returned, so the resident set it grows to does not depend on
	// where the previous round's last collection fell.
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	for i, f := range frames {
		o.attempted++
		r, err := processFrame(f, profiles[specs[i].prof], tr)
		if err != nil {
			o.fail("%v", err)
		}
		st.results = append(st.results, r)
		st.rss = append(st.rss, rssMB())
	}
	st.wall = since(start)
	runtime.ReadMemStats(&after)
	st.mallocs = after.Mallocs - before.Mallocs
	if tr != nil {
		st.spans = tr.spans
	}
	return st
}

// phyPass runs rounds until the window is spent. A warm-up round first
// fills the lazily built tables (FFT plans, constellations) and is not
// timed; every round must reproduce its fingerprint. An untraced pass runs
// at least three rounds, so each frame's median time discards a stalled
// round. With traced set, every other round records spans (at least one
// of each kind runs).
func phyPass(o *outcome, specs []phyRoundSpec, profiles []*phyProfile, window time.Duration, traced bool) []phyRoundStats {
	warm := runPhyRound(o, specs, profiles, nil)
	want := warm.fingerprint()
	var rounds []phyRoundStats
	var spent time.Duration
	minRounds := 3
	if traced {
		minRounds = 2
	}
	for len(rounds) < minRounds || !windowSpent(spent, len(rounds), window) {
		var tr *tracer
		if traced && len(rounds)%2 == 1 {
			tr = newTracer(now())
		}
		st := runPhyRound(o, specs, profiles, tr)
		spent += st.wall
		if got := st.fingerprint(); got != want {
			o.fail("round %d outcome %+v differs from the first round's %+v", len(rounds)+1, got, want)
		}
		rounds = append(rounds, st)
	}
	return rounds
}

// phyTotals sums a round's per-class times.
type phyTotals struct {
	shortN, longN     int
	simShort, simLong float64
	rxShort, rxLong   float64
	modemN            int
	modemTx, modemRx  float64
	frames            int
}

func totals(st phyRoundStats) phyTotals {
	var t phyTotals
	for _, r := range st.results {
		t.frames++
		switch {
		case !r.joint:
			t.modemN++
			t.modemTx += r.txMs
			t.modemRx += r.rxMs
		case r.long:
			t.longN++
			t.simLong += r.txMs
			t.rxLong += r.rxMs
		default:
			t.shortN++
			t.simShort += r.txMs
			t.rxShort += r.rxMs
		}
	}
	return t
}

// frameMedians returns each frame's median synthesis-plus-decode time
// over the rounds (every round processes the same frames in order).
func frameMedians(rounds []phyRoundStats) []float64 {
	out := make([]float64, len(rounds[0].results))
	xs := make([]float64, len(rounds))
	for i := range out {
		for r, st := range rounds {
			xs[r] = st.results[i].txMs + st.results[i].rxMs
		}
		out[i] = median(xs)
	}
	return out
}

// perRound applies f to every round and returns the median.
func perRound(rounds []phyRoundStats, f func(phyTotals, phyRoundStats) float64) float64 {
	var xs []float64
	for _, st := range rounds {
		xs = append(xs, f(totals(st), st))
	}
	return median(xs)
}

func runPhy(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	var setups []float64
	var profiles []*phyProfile
	for i := 0; i < phySetups; i++ {
		t0 := now()
		profiles = setUpPhy()
		setups = append(setups, since(t0).Seconds())
	}
	specs := phyRound(rc.seed, profiles)

	if !rc.trace {
		rounds := phyPass(o, specs, profiles, rc.window, false)
		var rss []float64
		for _, st := range rounds {
			rss = append(rss, st.rss...)
		}
		o.metrics["setup_s"] = median(setups)
		o.metrics["rss_mb"] = median(rss)
		// Each frame's time is its median over the rounds, so a stall in
		// one round moves neither the throughputs nor the latency
		// quantiles.
		med := frameMedians(rounds)
		var shortN, okBytes int
		var shortMs, longMs float64
		var lat []float64
		for i, r := range rounds[0].results {
			if r.joint {
				lat = append(lat, med[i])
			}
			switch {
			case !r.joint:
			case r.long:
				longMs += med[i]
				if r.ok {
					okBytes += phyLong
				}
			default:
				shortN++
				shortMs += med[i]
			}
		}
		o.metrics["work_per_s"] = float64(shortN) / (shortMs / 1000)
		o.metrics["goodput_kb_per_s"] = float64(okBytes) / 1000 / (longMs / 1000)
		o.metrics["unit_p50_ms"] = quantile(lat, 0.5)
		o.metrics["unit_p90_ms"] = quantile(lat, 0.9)
		fp := rounds[0].fingerprint()
		o.summary = append(o.summary, fmt.Sprintf("%d frames per round (%d joint, %d CRC ok), %d rounds; phy_short_frames_per_s=%.2f phy_long_kb_per_s=%.2f",
			len(specs), fp.frames, fp.crcOK, len(rounds), o.metrics["work_per_s"], o.metrics["goodput_kb_per_s"]))
		return o, nil
	}

	var plain, traced []phyRoundStats
	for _, st := range phyPass(o, specs, profiles, rc.window, true) {
		if st.spans != nil {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
	}
	m := o.metrics
	m["phy.sim_ms_per_frame.short"] = perRound(plain, func(t phyTotals, _ phyRoundStats) float64 { return t.simShort / float64(t.shortN) })
	m["phy.sim_ms_per_frame.long"] = perRound(plain, func(t phyTotals, _ phyRoundStats) float64 { return t.simLong / float64(t.longN) })
	m["phy.rx_ms_per_frame.short"] = perRound(plain, func(t phyTotals, _ phyRoundStats) float64 { return t.rxShort / float64(t.shortN) })
	m["phy.rx_ms_per_frame.long"] = perRound(plain, func(t phyTotals, _ phyRoundStats) float64 { return t.rxLong / float64(t.longN) })
	m["modem.tx_ms_per_frame.long"] = perRound(plain, func(t phyTotals, _ phyRoundStats) float64 { return t.modemTx / float64(t.modemN) })
	m["modem.rx_ms_per_frame.long"] = perRound(plain, func(t phyTotals, _ phyRoundStats) float64 { return t.modemRx / float64(t.modemN) })
	m["phy.allocs_per_frame"] = perRound(plain, func(t phyTotals, st phyRoundStats) float64 { return float64(st.mallocs) / float64(t.frames) })
	fp := plain[0].fingerprint()
	m["phy.frames"] = float64(fp.frames)
	m["phy.crc_ok"] = float64(fp.crcOK)
	m["phy.co_joined"] = float64(fp.coJoined)
	m["phy.slot_misses"] = float64(fp.slotMisses)
	m["modem.crc_ok"] = float64(fp.modemOK)
	roundWall := func(_ phyTotals, st phyRoundStats) float64 { return st.wall.Seconds() }
	m["trace.overhead_pct"] = 100 * (perRound(traced, roundWall)/perRound(plain, roundWall) - 1)
	spans := traced[0].spans
	m["trace.spans"] = float64(len(spans))
	if err := writeSpans(rc.traceFile, spans); err != nil {
		return nil, err
	}
	return o, nil
}
