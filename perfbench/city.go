package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/samplerate"
	"repro/internal/testbed"
)

// cityConfig sizes a metro-style city: CellsX x CellsY cells on a
// 2*CSRangeM pitch (the metro experiment's spacing), APsPerCell APs within
// 10 m of each cell center, and ClientsPerCell clients 8-25 m from their
// nearest AP, each with a fixed downlink backlog served jointly by all of
// its cell's APs.
type cityConfig struct {
	cellsX, cellsY int
	apsPerCell     int
	clientsPerCell int
	packets        int
	payload        int
	csRangeM       float64
	ixRangeM       float64
}

func (c cityConfig) flows() int { return c.cellsX * c.cellsY * c.clientsPerCell }

// cityWorkload is the timed city: 70x70 cells of 8 clients, 39,200 joint
// downlinks of 5 packets each, on a 90 m pitch with 45 m carrier sense and
// a 150 m interference horizon.
var cityWorkload = cityConfig{
	cellsX: 70, cellsY: 70, apsPerCell: 2, clientsPerCell: 8,
	packets: 5, payload: 1460, csRangeM: 45, ixRangeM: 150,
}

// cityEquivalence is the small city on which every run first checks that
// the harness reproduces lasthop.Cell.RunJoint client for client.
var cityEquivalence = cityConfig{
	cellsX: 4, cellsY: 3, apsPerCell: 2, clientsPerCell: 4,
	packets: 4, payload: 1460, csRangeM: 45, ixRangeM: 150,
}

// citySetups is the least number of set-ups a city run times, so setup_s
// is a median even when only one or two drains fit in the window.
const citySetups = 5

// cityPoint draws a point uniformly in the square of half-width h around
// center until accept holds (the metro experiment's rejection sampler).
func cityPoint(rng *rand.Rand, center testbed.Point, h float64, accept func(testbed.Point) bool) testbed.Point {
	var p testbed.Point
	for i := 0; i < 100000; i++ {
		p = testbed.Point{
			X: center.X + (rng.Float64()*2-1)*h,
			Y: center.Y + (rng.Float64()*2-1)*h,
		}
		if accept(p) {
			return p
		}
	}
	return p
}

// buildCity lays the city out exactly as the metro experiment lays out
// its cities (APs spread at least 4 m apart, clients placed cell-major)
// and draws every AP -> client link from env.
func buildCity(rng *rand.Rand, c cityConfig, env *testbed.Testbed, m mac.Params, model netsim.InterferenceModel) lasthop.Cell {
	spacing := 2 * c.csRangeM
	n := c.flows()
	cell := lasthop.Cell{
		Mac:                m,
		PayloadBytes:       c.payload,
		Links:              make([][]testbed.Link, 0, n),
		APPos:              make([][]testbed.Point, 0, n),
		ClientPos:          make([]testbed.Point, 0, n),
		PacketsPerClient:   c.packets,
		CSRangeM:           c.csRangeM,
		Model:              model,
		Env:                env,
		InterferenceRangeM: c.ixRangeM,
	}
	for cy := 0; cy < c.cellsY; cy++ {
		for cx := 0; cx < c.cellsX; cx++ {
			center := testbed.Point{X: spacing/2 + float64(cx)*spacing, Y: spacing/2 + float64(cy)*spacing}
			aps := make([]testbed.Point, c.apsPerCell)
			for a := range aps {
				aps[a] = cityPoint(rng, center, 10, func(p testbed.Point) bool {
					if testbed.Dist(p, center) > 10 {
						return false
					}
					for _, q := range aps[:a] {
						if testbed.Dist(p, q) < 4 {
							return false
						}
					}
					return true
				})
			}
			for k := 0; k < c.clientsPerCell; k++ {
				pos := cityPoint(rng, center, 35, func(p testbed.Point) bool {
					nearest := testbed.Dist(p, aps[0])
					for _, q := range aps[1:] {
						nearest = min(nearest, testbed.Dist(p, q))
					}
					return nearest >= 8 && nearest <= 25
				})
				links := make([]testbed.Link, c.apsPerCell)
				for a := range aps {
					links[a] = env.NewLink(rng, aps[a], pos)
				}
				cell.Links = append(cell.Links, links)
				cell.APPos = append(cell.APPos, aps)
				cell.ClientPos = append(cell.ClientPos, pos)
			}
		}
	}
	return cell
}

// newCityEnv returns the 802.11 MAC and the testbed of a city's floor.
func newCityEnv(c cityConfig) (mac.Params, *testbed.Testbed) {
	cfg := modem.Profile80211()
	env := testbed.Mesh(cfg)
	env.Width = float64(c.cellsX) * 2 * c.csRangeM
	env.Height = float64(c.cellsY) * 2 * c.csRangeM
	return mac.Default(cfg), env
}

// tracedModel decorates the interference model with a span around each
// Settle call. The model never sees which flow it prices, so the span's id
// is the frame's rate index; its parent is the Step that settled it.
type tracedModel struct {
	inner netsim.InterferenceModel
	tr    *tracer
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Settle(rx netsim.Reception) netsim.Verdict {
	m.tr.begin(kSettle, rx.RateIdx)
	v := m.inner.Settle(rx)
	m.tr.end()
	return v
}

// citySim is one city wired into netsim, ready to drain.
type citySim struct {
	sim   *netsim.Sim
	flows []*netsim.Flow
	tr    *tracer
	// settled counts frames retired by Done; every frameBatch frames the
	// Done hook stamps marks with the time since the drain began.
	settled    int
	drainStart time.Time
	marks      []time.Duration
	rss        []float64 // resident MiB at each mark
}

// frameBatch is the unit of the city's latency distribution: host time to
// settle this many frames.
const frameBatch = 1000

// newCitySim wires one flow per client into a fresh netsim with the hooks
// lasthop.Cell.RunJoint installs — SampleRate picking the rate, the joint
// frame-time table, the joint multipath delivery draw — so the drain
// consumes the simulator's RNG exactly as RunJoint does. With tr set,
// every hook, the interference model and AddFlow record spans.
func newCitySim(c lasthop.Cell, rng *rand.Rand, tr *tracer) *citySim {
	cs := &citySim{sim: netsim.New(c.Mac, rng), tr: tr}
	sim := cs.sim
	sim.CSRangeM = c.CSRangeM
	sim.CaptureDB = c.CaptureDB
	sim.Model = c.Model
	if tr != nil {
		sim.Model = &tracedModel{inner: c.Model, tr: tr}
	}
	sim.Env = c.Env
	sim.InterferenceRangeM = c.InterferenceRangeM

	dataCP := c.Mac.Cfg.CPLen + c.DataCPIncrease
	ftByCo := map[int][]float64{}
	cs.flows = make([]*netsim.Flow, len(c.Links))
	for client := range c.Links {
		links := c.Links[client]
		numCo := len(links) - 1
		ft, ok := ftByCo[numCo]
		if !ok {
			for _, r := range modem.StandardRates() {
				ft = append(ft, c.Mac.JointFrameDuration(r, c.PayloadBytes, numCo, dataCP))
			}
			ftByCo[numCo] = ft
		}
		best := 0
		for a := range links {
			if links[a].SNRdB > links[best].SNRdB {
				best = a
			}
		}
		sr := samplerate.New(ft)
		remaining := c.PacketsPerClient
		f := &netsim.Flow{
			Acked: true,
			Radio: &netsim.Radio{TxPos: c.APPos[client][best], RxPos: c.ClientPos[client], SNRdB: links[best].SNRdB},
			HasTraffic: func() bool {
				tr.begin(kHasTraffic, client)
				ok := remaining > 0
				tr.end()
				return ok
			},
			Prepare: func(rng *rand.Rand) int {
				tr.begin(kPrepare, client)
				idx, _ := sr.Pick(rng)
				tr.end()
				return idx
			},
			FrameTime: func(i int) float64 {
				tr.begin(kFrameTime, client)
				d := ft[i]
				tr.end()
				return d
			},
			Deliver: func(rng *rand.Rand, i int, ix netsim.Interference) bool {
				tr.begin(kDeliver, client)
				ok := netsim.JointLinkDeliverScaled(rng, links, sr.Rate(i), c.PayloadBytes, ix.SNRScale)
				tr.end()
				return ok
			},
			Done: func(i int, delivered bool, air float64) {
				tr.begin(kDone, client)
				remaining--
				sr.Update(i, delivered, air)
				tr.end()
				cs.settled++
				if cs.settled%frameBatch == 0 {
					cs.marks = append(cs.marks, since(cs.drainStart))
					cs.rss = append(cs.rss, rssMB())
				}
			},
		}
		tr.begin(kAddFlow, client)
		cs.flows[client] = sim.AddFlow(f)
		tr.end()
	}
	return cs
}

// maxCitySteps bounds a drain the way netsim.Sim.Run does.
const maxCitySteps = 1 << 26

// drain steps the simulator until every backlog is settled and returns
// the number of Step calls that did work.
func (cs *citySim) drain() (int, error) {
	cs.drainStart = now()
	for steps := 0; steps < maxCitySteps; steps++ {
		cs.tr.begin(kStep, steps)
		more := cs.sim.Step()
		cs.tr.end()
		if !more {
			return steps, nil
		}
	}
	return 0, fmt.Errorf("city drain did not finish in %d steps", maxCitySteps)
}

// cityStats is a drained city's simulated statistics: exact for a seed,
// so every drain of one city must reproduce them.
type cityStats struct {
	attempts, delivered, dropped, collisions, hiddenLosses int
	virtualS                                               float64
}

func (cs *citySim) stats() cityStats {
	st := cityStats{virtualS: cs.sim.Now()}
	for _, f := range cs.flows {
		st.attempts += f.Attempts
		st.delivered += f.Delivered
		st.dropped += f.Dropped
		st.collisions += f.Collisions
		st.hiddenLosses += f.HiddenLosses
	}
	return st
}

// cityDrain is the record of one set-up plus drain.
type cityDrain struct {
	buildS, modelS, addFlowS float64 // set-up phases
	drain                    time.Duration
	steps                    int
	mallocs                  uint64
	stats                    cityStats
	batches                  []float64 // ms per frameBatch settled frames
	rss                      []float64 // resident MiB after each batch
	spans                    []span
}

func (d cityDrain) setupS() float64 { return d.buildS + d.modelS + d.addFlowS }

// setUpCity times the set-up a user of the simulator pays once per city:
// layout and links, the interference model, and AddFlow for every client.
func setUpCity(c cityConfig, seed int64, tr *tracer) (*citySim, cityDrain) {
	var d cityDrain
	runtime.GC()
	t0 := now()
	m, env := newCityEnv(c)
	cell := buildCity(rand.New(rand.NewSource(seed)), c, env, m, nil)
	t1 := now()
	cell.Model = netsim.NewRateAware(m.Cfg, modem.StandardRates(), c.payload)
	t2 := now()
	cs := newCitySim(cell, rand.New(rand.NewSource(seed^0x5eed)), tr)
	t3 := now()
	d.buildS = t1.Sub(t0).Seconds()
	d.modelS = t2.Sub(t1).Seconds()
	d.addFlowS = t3.Sub(t2).Seconds()
	return cs, d
}

// runCityDrain sets up the seed's city and drains it once.
func runCityDrain(c cityConfig, seed int64, tr *tracer) (cityDrain, error) {
	cs, d := setUpCity(c, seed, tr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	steps, err := cs.drain()
	d.drain = since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return d, err
	}
	d.steps = steps
	d.mallocs = after.Mallocs - before.Mallocs
	d.stats = cs.stats()
	d.rss = cs.rss
	prev := time.Duration(0)
	for _, m := range cs.marks {
		d.batches = append(d.batches, ms(m-prev))
		prev = m
	}
	if tr != nil {
		d.spans = tr.spans
	}
	return d, nil
}

// checkCityEquivalence drains one small city through the harness and
// through lasthop.Cell.RunJoint from the same RNG seed and reports every
// client whose Delivered, Dropped, Collisions or HiddenLosses differ.
func checkCityEquivalence(c cityConfig, seed int64) []string {
	m, env := newCityEnv(c)
	cell := buildCity(rand.New(rand.NewSource(seed)), c, env, m, nil)
	cell.Model = netsim.NewRateAware(m.Cfg, modem.StandardRates(), c.payload)
	want := cell.RunJoint(rand.New(rand.NewSource(seed ^ 0x5eed)))
	cs := newCitySim(cell, rand.New(rand.NewSource(seed^0x5eed)), nil)
	if _, err := cs.drain(); err != nil {
		return []string{err.Error()}
	}
	var bad []string
	for i, f := range cs.flows {
		w := want.PerClient[i]
		if f.Delivered != w.Delivered || f.Dropped != w.Dropped || f.Collisions != w.Collisions || f.HiddenLosses != w.HiddenLosses {
			bad = append(bad, fmt.Sprintf("client %d: harness %d/%d/%d/%d, RunJoint %d/%d/%d/%d (delivered/dropped/collisions/hidden)",
				i, f.Delivered, f.Dropped, f.Collisions, f.HiddenLosses, w.Delivered, w.Dropped, w.Collisions, w.HiddenLosses))
		}
	}
	return bad
}

// cityPass drains the seed's city until the window is spent, checking
// each drain, and tops the set-ups up to citySetups. With traced set,
// every other drain records spans (at least one of each kind runs), so
// traced and untraced drains see the same machine conditions.
func cityPass(o *outcome, c cityConfig, seed int64, window time.Duration, traced bool) ([]cityDrain, []float64, error) {
	var drains []cityDrain
	var setups []float64
	var spent time.Duration
	minDrains := 1
	if traced {
		minDrains = 2
	}
	for len(drains) < minDrains || !windowSpent(spent, len(drains), window) {
		var tr *tracer
		if traced && len(drains)%2 == 1 {
			tr = newTracer(now())
		}
		d, err := runCityDrain(c, seed, tr)
		if err != nil {
			return nil, nil, err
		}
		spent += d.drain
		checkCityDrain(o, c, d, drains)
		drains = append(drains, d)
		setups = append(setups, d.setupS())
	}
	for len(setups) < citySetups {
		_, d := setUpCity(c, seed, nil)
		setups = append(setups, d.setupS())
	}
	return drains, setups, nil
}

// checkCityDrain counts the drain's offered frames as attempted and fails
// them all unless every frame settled exactly once and the simulated
// statistics repeat the first drain's exactly.
func checkCityDrain(o *outcome, c cityConfig, d cityDrain, earlier []cityDrain) {
	offered := c.flows() * c.packets
	o.attempted += offered
	switch {
	case d.stats.delivered+d.stats.dropped != offered:
		o.failed += offered
		o.problems = append(o.problems, fmt.Sprintf("%d frames offered, %d delivered + %d dropped", offered, d.stats.delivered, d.stats.dropped))
	case len(earlier) > 0 && d.stats != earlier[0].stats:
		o.failed += offered
		o.problems = append(o.problems, fmt.Sprintf("drain %d statistics %+v differ from drain 0's %+v", len(earlier), d.stats, earlier[0].stats))
	}
}

func runCity(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	c := cityWorkload

	o.attempted++
	if bad := checkCityEquivalence(cityEquivalence, rc.seed); len(bad) > 0 {
		o.failed++
		o.problems = append(o.problems, "harness differs from lasthop.Cell.RunJoint: "+bad[0])
	}

	if !rc.trace {
		drains, setups, err := cityPass(o, c, rc.seed, rc.window, false)
		if err != nil {
			return nil, err
		}
		var attemptsPerS, kbPerS, batches, rss []float64
		for _, d := range drains {
			attemptsPerS = append(attemptsPerS, float64(d.stats.attempts)/d.drain.Seconds())
			kbPerS = append(kbPerS, float64(d.stats.delivered*c.payload)/1000/d.drain.Seconds())
			batches = append(batches, d.batches...)
			rss = append(rss, d.rss...)
		}
		o.metrics["setup_s"] = median(setups)
		o.metrics["rss_mb"] = median(rss)
		o.metrics["work_per_s"] = median(attemptsPerS)
		o.metrics["goodput_kb_per_s"] = median(kbPerS)
		o.metrics["unit_p50_ms"] = quantile(batches, 0.5)
		o.metrics["unit_p90_ms"] = quantile(batches, 0.9)
		st := drains[0].stats
		o.summary = append(o.summary,
			fmt.Sprintf("%d flows x %d packets, %d drains; sim_attempts_per_s=%.1f sim_frames_per_s=%.1f",
				c.flows(), c.packets, len(drains), median(attemptsPerS), median(attemptsPerS)*float64(st.delivered)/float64(st.attempts)),
			fmt.Sprintf("attempts per second by drain: %.0f", attemptsPerS))
		return o, nil
	}

	// Traced run: spans come from the traced drains, everything else from
	// the untraced ones (cityPass has checked that both repeat the same
	// simulated statistics).
	drains, _, err := cityPass(o, c, rc.seed, rc.window, true)
	if err != nil {
		return nil, err
	}
	var plain, traced []cityDrain
	for _, d := range drains {
		if d.spans != nil {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	p, t := plain[0], traced[0]
	att := float64(p.stats.attempts)
	var build, addFlow []float64
	for _, d := range plain {
		build = append(build, d.buildS)
		addFlow = append(addFlow, d.addFlowS)
	}
	ks := summarize(t.spans)
	hooks := int64(0)
	for _, k := range []spanKind{kHasTraffic, kPrepare, kFrameTime, kDeliver, kDone, kSettle} {
		hooks += ks[k].totalNs
	}
	sr := ks[kPrepare].totalNs + ks[kDone].totalNs
	srCalls := ks[kPrepare].calls + ks[kDone].calls
	var plainDrain, tracedDrain []float64
	for _, d := range plain {
		plainDrain = append(plainDrain, d.drain.Seconds())
	}
	for _, d := range traced {
		tracedDrain = append(tracedDrain, d.drain.Seconds())
	}
	m := o.metrics
	m["testbed.build_s"] = median(build)
	m["netsim.addflow_s"] = median(addFlow)
	m["netsim.step_ns_per_attempt"] = median(plainDrain) * 1e9 / att
	m["netsim.traced_step_ns_per_attempt"] = float64(ks[kStep].totalNs) / att
	m["netsim.self_ns_per_attempt"] = float64(ks[kStep].selfNs) / att
	m["netsim.hooks_ns_per_attempt"] = float64(hooks) / att
	m["netsim.steps_per_attempt"] = float64(p.steps) / att
	m["netsim.model.settle_calls"] = float64(ks[kSettle].calls)
	m["netsim.model.settle_ns_per_call"] = ratio(float64(ks[kSettle].totalNs), float64(ks[kSettle].calls))
	m["delivery.calls"] = float64(ks[kDeliver].calls)
	m["delivery.draw_ns_per_call"] = ratio(float64(ks[kDeliver].totalNs), float64(ks[kDeliver].calls))
	m["samplerate.ns_per_call"] = ratio(float64(sr), float64(srCalls))
	m["city.allocs_per_attempt"] = float64(p.mallocs) / att
	m["netsim.attempts"] = att
	m["netsim.delivered"] = float64(p.stats.delivered)
	m["netsim.dropped"] = float64(p.stats.dropped)
	m["netsim.collisions"] = float64(p.stats.collisions)
	m["netsim.hidden_losses"] = float64(p.stats.hiddenLosses)
	m["netsim.virtual_s"] = p.stats.virtualS
	m["netsim.useful_ratio"] = float64(p.stats.delivered) / att
	m["trace.overhead_pct"] = 100 * (median(tracedDrain)/median(plainDrain) - 1)
	m["trace.spans"] = float64(len(t.spans))
	if err := writeSpans(rc.traceFile, t.spans); err != nil {
		return nil, err
	}
	return o, nil
}
