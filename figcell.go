package sourcesync

import (
	"math"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/exor"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// ----------------------------------------------------------------- cell

// CellOptions configures the multi-client WLAN cell experiment — §8.3
// scaled beyond the paper's single client: N clients with backlogged
// downlink traffic from M APs, all contending for one medium through
// internal/netsim.
type CellOptions struct {
	Seed       int64
	Placements int // random AP/client placements
	Clients    int // N clients sharing the cell
	APs        int // M APs serving it
	Packets    int // downlink packets per client
	Payload    int
	// WindowSec switches to fixed-time-window saturation mode: unbounded
	// backlogs drained for this many virtual seconds (Packets ignored), so
	// one starved client no longer gates the elapsed time. 0 keeps the
	// drain-the-backlog mode.
	WindowSec float64
	// Workers bounds the engine's parallelism: 0 uses one worker per CPU,
	// 1 runs serially. Results are identical either way.
	Workers int
	// Monitor optionally observes the run (trial progress) and lets the
	// caller cancel it cooperatively; a canceled run's output must be
	// discarded. Nil is free. See engine.Monitor.
	Monitor *engine.Monitor
}

// DefaultCellOptions returns the parameters used by ssbench: an 8-client,
// 2-AP cell under the rate-aware interference model.
func DefaultCellOptions() CellOptions {
	return CellOptions{Seed: 9, Placements: 20, Clients: 8, APs: 2, Packets: 120, Payload: 1460}
}

// CellExpResult carries the aggregate-throughput CDFs of the two serving
// modes and contention diagnostics.
type CellExpResult struct {
	SingleAggMbps []float64 // sorted, one per placement (best single AP per client)
	JointAggMbps  []float64 // same placements, every client served jointly
	MedianGain    float64
	// MeanCollisionRate is the fraction of medium acquisitions that ended
	// in a collision, averaged over the joint runs — the contention the
	// single-flow experiments cannot exhibit.
	MeanCollisionRate float64
	// MeanCaptureRate is captures per acquisition averaged over the joint
	// runs: colliding frames the rate-aware model let survive at their own
	// rate's decode threshold.
	MeanCaptureRate float64
	// RateCorruption aggregates the interference model's per-rate outcomes
	// over every joint run (index = SampleRate rate index).
	RateCorruption []netsim.RateCorruption
}

// RunCell simulates the multi-client cell: each placement spreads the APs
// over the floor, drops every client in usable-but-not-saturated range of
// its nearest AP (as in Fig. 17's motivation), and drains each client's
// backlog once with per-client best-single-AP service and once with
// SourceSync joint transmissions. The cell runs with the rate-aware
// interference model: colliding downlinks may capture at their own rate's
// decode threshold and surviving frames pay the effective-SNR degradation
// in their delivery draws.
func RunCell(o CellOptions) CellExpResult {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	m := mac.Default(cfg)
	ec := engine.Config{Seed: o.Seed, Workers: o.Workers, Monitor: o.Monitor}
	model := netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload)

	rows := engine.Map(ec, 0, o.Placements, func(pl int, rng *rand.Rand) sweepPlacement {
		aps, clientPos, links := placeCell(rng, env, o.APs, o.Clients)
		apPos := make([][]testbed.Point, o.Clients)
		for c := range apPos {
			apPos[c] = aps
		}
		// One collision domain (CSRangeM 0), with geometry wired so the
		// interference model prices every collision.
		return drainPlacement(lasthop.Cell{
			Mac:              m,
			PayloadBytes:     o.Payload,
			Links:            links,
			APPos:            apPos,
			ClientPos:        clientPos,
			PacketsPerClient: o.Packets,
			Model:            model,
			Env:              env,
			WindowSec:        o.WindowSec,
		}, rng)
	})

	var res CellExpResult
	var gains []float64
	var crSum, capSum float64
	for _, r := range rows {
		res.SingleAggMbps = append(res.SingleAggMbps, r.singleBps/1e6)
		res.JointAggMbps = append(res.JointAggMbps, r.jointBps/1e6)
		if r.singleBps > 0 {
			gains = append(gains, r.jointBps/r.singleBps)
		}
		crSum += r.collisionRate
		capSum += r.captureRate
		res.RateCorruption = netsim.MergeRateCorruption(res.RateCorruption, r.corruption)
	}
	sortFloats(res.SingleAggMbps)
	sortFloats(res.JointAggMbps)
	res.MedianGain = dsp.Median(gains)
	if len(rows) > 0 {
		res.MeanCollisionRate = crSum / float64(len(rows))
		res.MeanCaptureRate = capSum / float64(len(rows))
	}
	return res
}

// placeCell draws one cell placement — the draw sequence RunCell has
// always used, shared with the scenario executor (figscenario.go) so a
// spec describing the same cell reproduces it draw for draw: the APs
// spread over the floor (each at least a quarter floor-width from the
// others; bounded rejection sampling fails loudly if the floor cannot
// hold them), then each client 8-25 m from its nearest AP — links with
// rate headroom, the regime where sender diversity pays — with one
// shadowed link drawn from every AP.
func placeCell(rng *rand.Rand, env *testbed.Testbed, nAPs, nClients int) (aps, clientPos []testbed.Point, links [][]testbed.Link) {
	aps = make([]testbed.Point, nAPs)
	for a := range aps {
		aps[a] = env.RandomPointWhere(rng, 100000, func(p testbed.Point) bool {
			for _, q := range aps[:a] {
				if testbed.Dist(p, q) < env.Width/4 {
					return false
				}
			}
			return true
		})
	}
	links = make([][]testbed.Link, nClients)
	clientPos = make([]testbed.Point, nClients)
	for c := range links {
		pos := env.RandomPointWhere(rng, 100000, servedBy(aps))
		links[c] = make([]testbed.Link, nAPs)
		for a := range aps {
			links[c][a] = env.NewLink(rng, aps[a], pos)
		}
		clientPos[c] = pos
	}
	return aps, clientPos, links
}

// apNear is the AP acceptance predicate of the multi-cell layouts
// (cellsweep, metro, multicell scenarios): within 10 m of the cell center
// and at least 4 m from every AP placed before it.
func apNear(center testbed.Point, earlier []testbed.Point) func(testbed.Point) bool {
	return func(p testbed.Point) bool {
		if testbed.Dist(p, center) > 10 {
			return false
		}
		for _, q := range earlier {
			if testbed.Dist(p, q) < 4 {
				return false
			}
		}
		return true
	}
}

// servedBy is the client acceptance predicate every placement shares: the
// nearest of aps sits 8-25 m away, a link with rate headroom.
func servedBy(aps []testbed.Point) func(testbed.Point) bool {
	return func(p testbed.Point) bool {
		nearest := math.Inf(1)
		for _, q := range aps {
			if d := testbed.Dist(p, q); d < nearest {
				nearest = d
			}
		}
		return nearest >= 8 && nearest <= 25
	}
}

// ---------------------------------------------------------- crosstraffic

// CrossTrafficOptions configures the mesh cross-traffic experiment: the
// §8.4 topology's routed flow sharing its collision domain with contending
// single-hop flows between relays.
type CrossTrafficOptions struct {
	Seed         int64
	Topologies   int
	Packets      int // routed packets per run
	CrossFlows   int // contending single-hop flows
	CrossPackets int // backlog per cross flow
	Payload      int
	RateMbps     int
	Probes       int // measurement-phase probes per link
	// AdaptCross gives every cross flow a SampleRate controller over the
	// standard rate table (instead of the fixed RateMbps), so rate
	// adaptation reacts to contention and interference-degraded loss.
	AdaptCross bool
	// CSRangeM is the carrier-sense range between cross-flow transmitters
	// (meters). 0 keeps the classic single collision domain; positive
	// values enable spatial reuse — and hidden terminals — between cross
	// flows in different parts of the mesh. The routed flow's transmitter
	// moves hop by hop, so it always contends with everyone.
	CSRangeM float64
	// WidthScale stretches the mesh floor (and the relay spread) by this
	// factor; 0 or 1 keeps the default geometry. The spatial-mesh variant
	// pairs a stretched floor with a finite CSRangeM so relay-to-relay
	// cross flows land in different cells.
	WidthScale float64
	// Workers bounds the engine's parallelism: 0 uses one worker per CPU,
	// 1 runs serially. Results are identical either way.
	Workers int
	// Monitor optionally observes the run (trial progress) and lets the
	// caller cancel it cooperatively; a canceled run's output must be
	// discarded. Nil is free. See engine.Monitor.
	Monitor *engine.Monitor
}

// DefaultCrossTrafficOptions returns the parameters used by ssbench:
// one collision domain, SampleRate-adapted cross flows, rate-aware
// interference.
func DefaultCrossTrafficOptions() CrossTrafficOptions {
	return CrossTrafficOptions{
		Seed: 10, Topologies: 20, Packets: 120, CrossFlows: 2,
		CrossPackets: 150, Payload: 1000, RateMbps: 12, Probes: 60,
		AdaptCross: true,
	}
}

// SpatialCrossTrafficOptions returns the spatial-mesh variant used by
// ssbench: the floor stretched to 1.2x the mesh default with the relays
// spread across the span, and a carrier-sense range shortened to 20 m so
// relay-to-relay cross flows land in different cells — they reuse the
// medium concurrently and corrupt each other as hidden terminals, priced
// by the rate-aware interference model. Stretching much further kills the
// routed path outright (hops pass the 12 Mbps waterfall), so the variant
// leans on the shorter carrier sense for its spatial structure.
func SpatialCrossTrafficOptions() CrossTrafficOptions {
	o := DefaultCrossTrafficOptions()
	o.Seed = 12
	o.CSRangeM = 20
	o.WidthScale = 1.2
	return o
}

// CrossTrafficResult compares single-path routing and ExOR+SourceSync with
// and without cross traffic on the same topologies.
type CrossTrafficResult struct {
	SinglePathAloneMbps  []float64 // sorted CDFs, one entry per topology
	SinglePathLoadedMbps []float64
	SourceSyncAloneMbps  []float64
	SourceSyncLoadedMbps []float64
	// Median ratios of loaded over alone throughput (1 = unaffected).
	SinglePathRetention float64
	SourceSyncRetention float64
	// Median of SourceSync-loaded over single-path-loaded: does sender
	// diversity still pay under contention?
	GainUnderLoad float64
	// CrossHiddenLosses totals the cross flows' attempts corrupted by
	// hidden terminals across every loaded run (spatial variant only).
	CrossHiddenLosses int
	// CrossRateCorruption aggregates the interference model's per-rate
	// outcomes over the cross flows of every loaded run (index = standard
	// rate index under AdaptCross, 0 otherwise).
	CrossRateCorruption []netsim.RateCorruption
}

// RunCrossTraffic regenerates the cross-traffic comparison over random
// §8.4 mesh topologies: relays carry their own contending flows while the
// source routes packets to the destination. With o.CSRangeM set (the
// spatial-mesh variant) the relays are spread across a stretched floor, so
// cross flows in different cells reuse the medium concurrently and corrupt
// each other as hidden terminals.
func RunCrossTraffic(o CrossTrafficOptions) CrossTrafficResult {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	if o.WidthScale > 1 {
		env.Width *= o.WidthScale
	}
	rate, err := modem.RateByMbps(o.RateMbps)
	if err != nil {
		panic(err)
	}
	m := mac.Default(cfg)
	ec := engine.Config{Seed: o.Seed, Workers: o.Workers, Monitor: o.Monitor}
	// The cross flows' rate table: the standard rates under AdaptCross,
	// the single fixed rate otherwise.
	rates := []modem.Rate{rate}
	if o.AdaptCross {
		rates = modem.StandardRates()
	}
	model := netsim.NewRateAware(cfg, rates, o.Payload)

	type tpRes struct {
		spAlone, spLoaded, ssAlone, ssLoaded float64
		crossHidden                          int
		crossCorruption                      []netsim.RateCorruption
	}
	// The spatial variant spreads relays across a stretched floor, where a
	// fraction of draws land with every src -> dst path past the rate's
	// waterfall: the routed run then measures a dead topology, not
	// contention. ETX-aware placement fixes that in two bounded stages:
	// the shadowing-SNR proxy inside randomMeshTopology prunes hopeless
	// geometry before the measurement phase, and if the measured ETX graph
	// still leaves the destination unreachable (fading in the probe draws
	// can kill a proxy-approved chain), the whole topology re-rolls. The
	// compact variant keeps nil + no re-roll to stay draw-identical to its
	// history.
	var routable func(*exor.Topology) bool
	if o.CSRangeM > 0 {
		routable = meshRoutablePredicate(cfg, rate, o.Payload)
	}
	rows := engine.Map(ec, 0, o.Topologies, func(tp int, rng *rand.Rand) tpRes {
		topo := randomMeshTopology(rng, env, o.CSRangeM > 0, routable)
		meas := topo.Measure(rng, rate, o.Payload, o.Probes, 0.1)
		for tries := 0; routable != nil && math.IsInf(meas.DistTo[0], 1) && tries < meshRelayRedraws; tries++ {
			topo = randomMeshTopology(rng, env, true, routable)
			meas = topo.Measure(rng, rate, o.Payload, o.Probes, 0.1)
		}
		sim := &exor.Sim{Topo: topo, Meas: meas, Mac: m, Rate: rate, Payload: o.Payload,
			CSRangeM: o.CSRangeM, Model: model, AdaptCross: o.AdaptCross}
		// Cross flows between distinct relays (nodes 1..N-2), drawn per
		// topology.
		relays := topo.N() - 2
		cross := make([]exor.CrossFlow, o.CrossFlows)
		for i := range cross {
			from := 1 + rng.Intn(relays)
			to := 1 + rng.Intn(relays-1)
			if to >= from {
				to++
			}
			cross[i] = exor.CrossFlow{From: from, To: to, Packets: o.CrossPackets}
		}
		spAlone := sim.Run(rand.New(rand.NewSource(rng.Int63())), exor.SinglePath, o.Packets)                               //sslint:allow detrand child RNG bridged from the per-trial stream; the parent draw is part of the contracted draw order
		spLoaded, spCross := sim.RunWithCross(rand.New(rand.NewSource(rng.Int63())), exor.SinglePath, o.Packets, cross)     //sslint:allow detrand child RNG bridged from the per-trial stream; the parent draw is part of the contracted draw order
		ssAlone := sim.Run(rand.New(rand.NewSource(rng.Int63())), exor.ExORSourceSync, o.Packets)                           //sslint:allow detrand child RNG bridged from the per-trial stream; the parent draw is part of the contracted draw order
		ssLoaded, ssCross := sim.RunWithCross(rand.New(rand.NewSource(rng.Int63())), exor.ExORSourceSync, o.Packets, cross) //sslint:allow detrand child RNG bridged from the per-trial stream; the parent draw is part of the contracted draw order
		r := tpRes{spAlone: spAlone.ThroughputBps, spLoaded: spLoaded.ThroughputBps,
			ssAlone: ssAlone.ThroughputBps, ssLoaded: ssLoaded.ThroughputBps}
		for _, c := range append(spCross, ssCross...) {
			r.crossHidden += c.HiddenLosses
			r.crossCorruption = netsim.MergeRateCorruption(r.crossCorruption, c.RateCorruption)
		}
		return r
	})

	var res CrossTrafficResult
	var spRet, ssRet, gain []float64
	for _, r := range rows {
		res.SinglePathAloneMbps = append(res.SinglePathAloneMbps, r.spAlone/1e6)
		res.SinglePathLoadedMbps = append(res.SinglePathLoadedMbps, r.spLoaded/1e6)
		res.SourceSyncAloneMbps = append(res.SourceSyncAloneMbps, r.ssAlone/1e6)
		res.SourceSyncLoadedMbps = append(res.SourceSyncLoadedMbps, r.ssLoaded/1e6)
		if r.spAlone > 0 {
			spRet = append(spRet, r.spLoaded/r.spAlone)
		}
		if r.ssAlone > 0 {
			ssRet = append(ssRet, r.ssLoaded/r.ssAlone)
		}
		if r.spLoaded > 0 {
			gain = append(gain, r.ssLoaded/r.spLoaded)
		}
		res.CrossHiddenLosses += r.crossHidden
		res.CrossRateCorruption = netsim.MergeRateCorruption(res.CrossRateCorruption, r.crossCorruption)
	}
	sortFloats(res.SinglePathAloneMbps)
	sortFloats(res.SinglePathLoadedMbps)
	sortFloats(res.SourceSyncAloneMbps)
	sortFloats(res.SourceSyncLoadedMbps)
	res.SinglePathRetention = dsp.Median(spRet)
	res.SourceSyncRetention = dsp.Median(ssRet)
	res.GainUnderLoad = dsp.Median(gain)
	return res
}
