package sourcesync

import (
	"math"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// ------------------------------------------------------------- cellsweep

// CellSweepOptions configures the multi-cell saturation sweep: C spatially
// separated WLAN cells — adjacent cells sit beyond carrier-sense range, so
// their downlinks reuse the medium concurrently — each holding M APs and N
// backlogged clients, with N swept to trace saturation throughput versus
// offered population for joint (SourceSync) and best-single-AP service.
type CellSweepOptions struct {
	Seed       int64
	Placements int   // random AP/client placements per sweep point
	Cells      int   // spatially separated cells (>= 1)
	APsPerCell int   // M APs serving each cell
	ClientsPer []int // sweep: clients per cell, one curve point each
	Packets    int   // downlink packets per client
	Payload    int
	CSRangeM   float64 // carrier-sense range between transmitters (meters)
	// WindowSec switches every run to fixed-time-window saturation mode:
	// unbounded backlogs drained for this many virtual seconds (Packets
	// ignored), so one starved boundary client no longer gates a run's
	// elapsed time. 0 keeps the drain-the-backlog mode.
	WindowSec float64
	// Workers bounds the engine's parallelism: 0 uses one worker per CPU,
	// 1 runs serially. Results are identical either way.
	Workers int
	// Monitor optionally observes the run (trial progress) and lets the
	// caller cancel it cooperatively; a canceled run's output must be
	// discarded. Nil is free. See engine.Monitor.
	Monitor *engine.Monitor
}

// DefaultCellSweepOptions returns the parameters used by ssbench: two
// cells, two APs each, clients swept 1..8 per cell, 30 m carrier sense.
func DefaultCellSweepOptions() CellSweepOptions {
	return CellSweepOptions{
		Seed: 11, Placements: 10, Cells: 2, APsPerCell: 2,
		ClientsPer: []int{1, 2, 4, 6, 8}, Packets: 60, Payload: 1460,
		CSRangeM: 30,
	}
}

// SweepStats are the per-point statistics shared by every cellsweep table
// (clients-per-cell, cell-count, carrier-sense range): medians and means
// across the placements at one swept value.
type SweepStats struct {
	SingleAggMbps float64 // median aggregate, best single AP per client
	JointAggMbps  float64 // median aggregate, SourceSync joint service
	MedianGain    float64 // per-placement joint/single, median
	// CollisionRate is the fraction of medium acquisitions whose transmit
	// groups collided, averaged over the joint runs.
	CollisionRate float64
	// HiddenRate is hidden-terminal corruptions per medium acquisition,
	// averaged over the joint runs: concurrent out-of-range downlinks
	// corrupting each other at the receivers.
	HiddenRate float64
	// CaptureRate is captures per acquisition averaged over the joint
	// runs: colliding downlinks the interference model let survive.
	CaptureRate float64
	// RateCorruption aggregates the interference model's per-rate outcomes
	// over every joint run at this sweep point (index = SampleRate rate
	// index): interfered / corrupted / degraded counts and summed decode
	// margins.
	RateCorruption []netsim.RateCorruption
	// MeanUtilization is busy time over elapsed time in the joint runs;
	// values above 1 mean several cells carried frames concurrently
	// (spatial reuse at work). With the event-driven per-neighborhood
	// clock it approaches the cell count under saturation, minus what
	// hidden terminals and DCF overhead take.
	MeanUtilization float64
}

// newSweepStats folds one swept value's placement reductions into the
// shared table row.
func newSweepStats(mp meanPlacement, agg aggMedians) SweepStats {
	return SweepStats{
		SingleAggMbps:   agg.single,
		JointAggMbps:    agg.joint,
		MedianGain:      agg.gain,
		CollisionRate:   mp.collisionRate,
		HiddenRate:      mp.hiddenRate,
		CaptureRate:     mp.captureRate,
		MeanUtilization: mp.utiliz,
		RateCorruption:  mp.corruption,
	}
}

// CellSweepPoint is one point of the saturation curve: the shared sweep
// statistics at a fixed client count per cell.
type CellSweepPoint struct {
	ClientsPerCell int
	SweepStats
}

// CellSweepResult is the full saturation-throughput-vs-clients sweep.
type CellSweepResult struct {
	Points []CellSweepPoint
}

// cellSpacing returns the distance between adjacent cell centers of
// cellsweep's row and metro's grid at carrier-sense range csRangeM. Two
// constraints set the floor: APs sit up to 10 m from their center, so
// cross-cell AP pairs are spacing-20 apart and must clear carrier sense
// (the 2x term); and clients roam up to 35 m from their center (25 m from
// an AP that is itself 10 m out), so a client's distance to a foreign
// cell's AP bottoms out at spacing-45 — the CSRangeM+45 term keeps even
// that worst-case receiver a full carrier-sense range from the hidden
// transmitters next door, bounding (not eliminating) hidden-terminal
// corruption at cell boundaries.
func cellSpacing(csRangeM float64) float64 {
	if csRangeM <= 0 {
		return 60
	}
	return math.Max(2*csRangeM, csRangeM+45)
}

// buildMultiCell lays one placement out on a floor wide enough for every
// cell: APs within 10 m of their cell center (and spread at least 4 m
// apart), clients 8-25 m from the nearest AP of their own cell, exactly as
// RunCell places a single cell. Client flows are ordered cell-major so runs
// reduce deterministically.
func buildMultiCell(rng *rand.Rand, env *testbed.Testbed, m mac.Params, o CellSweepOptions, model netsim.InterferenceModel, clientsPer int) lasthop.Cell {
	spacing := cellSpacing(o.CSRangeM)
	nClients := o.Cells * clientsPer
	cell := lasthop.Cell{
		Mac:              m,
		PayloadBytes:     o.Payload,
		Links:            make([][]testbed.Link, 0, nClients),
		APPos:            make([][]testbed.Point, 0, nClients),
		ClientPos:        make([]testbed.Point, 0, nClients),
		PacketsPerClient: o.Packets,
		CSRangeM:         o.CSRangeM,
		Model:            model,
		Env:              env,
		WindowSec:        o.WindowSec,
	}
	for c := 0; c < o.Cells; c++ {
		center := testbed.Point{X: spacing/2 + float64(c)*spacing, Y: env.Height / 2}
		aps := make([]testbed.Point, o.APsPerCell)
		for a := range aps {
			aps[a] = env.RandomPointWhere(rng, 100000, apNear(center, aps[:a]))
		}
		for k := 0; k < clientsPer; k++ {
			pos := env.RandomPointWhere(rng, 100000, servedBy(aps))
			links := make([]testbed.Link, o.APsPerCell)
			for a := range aps {
				links[a] = env.NewLink(rng, aps[a], pos)
			}
			cell.Links = append(cell.Links, links)
			cell.APPos = append(cell.APPos, aps)
			cell.ClientPos = append(cell.ClientPos, pos)
		}
	}
	return cell
}

// sweepPlacement is one placement's joint-vs-single comparison, shared by
// the cell experiment, cellsweep's three sweeps and metro.
type sweepPlacement struct {
	singleBps, jointBps       float64
	collisionRate, hiddenRate float64
	captureRate               float64
	utiliz                    float64
	corruption                []netsim.RateCorruption
}

// drainPlacement drains one laid-out placement under both serving modes,
// best single AP then joint, each on a child RNG drawn from rng in that
// order.
func drainPlacement(cell lasthop.Cell, rng *rand.Rand) sweepPlacement {
	single := cell.RunBestSingleAP(rand.New(rand.NewSource(rng.Int63()))) //sslint:allow detrand child RNG bridged from the per-trial stream; the parent draw is part of the contracted draw order
	joint := cell.RunJoint(rand.New(rand.NewSource(rng.Int63())))         //sslint:allow detrand child RNG bridged from the per-trial stream; the parent draw is part of the contracted draw order
	r := sweepPlacement{
		singleBps:  single.AggregateBps,
		jointBps:   joint.AggregateBps,
		utiliz:     joint.Utilization,
		corruption: joint.RateCorruption,
	}
	if joint.Acquisitions > 0 {
		r.collisionRate = float64(joint.Collisions) / float64(joint.Acquisitions)
		r.hiddenRate = float64(joint.HiddenLosses) / float64(joint.Acquisitions)
		r.captureRate = float64(joint.Captures) / float64(joint.Acquisitions)
	}
	return r
}

// meanPlacement and aggMedians are reducePlacements' two views of a sweep
// point: rate/utilization means, and Mbps/gain medians.
type meanPlacement struct {
	collisionRate, hiddenRate, captureRate, utiliz float64
	corruption                                     []netsim.RateCorruption
}
type aggMedians struct {
	single, joint, gain float64
}

// reducePlacements folds one sweep point's placements (in placement order,
// so float accumulation is deterministic) into means and medians.
func reducePlacements(rows []sweepPlacement) (meanPlacement, aggMedians) {
	var singles, joints, gains []float64
	var mp meanPlacement
	for _, r := range rows {
		singles = append(singles, r.singleBps/1e6)
		joints = append(joints, r.jointBps/1e6)
		if r.singleBps > 0 {
			gains = append(gains, r.jointBps/r.singleBps)
		}
		mp.collisionRate += r.collisionRate
		mp.hiddenRate += r.hiddenRate
		mp.captureRate += r.captureRate
		mp.utiliz += r.utiliz
		mp.corruption = netsim.MergeRateCorruption(mp.corruption, r.corruption)
	}
	if n := len(rows); n > 0 {
		mp.collisionRate /= float64(n)
		mp.hiddenRate /= float64(n)
		mp.captureRate /= float64(n)
		mp.utiliz /= float64(n)
	}
	return mp, aggMedians{
		single: dsp.Median(singles),
		joint:  dsp.Median(joints),
		gain:   dsp.Median(gains),
	}
}

// RunCellSweep traces saturation throughput versus clients per cell across
// spatially separated cells: every sweep point re-places APs and clients
// Placements times, drains each client's backlog once with best-single-AP
// service and once with SourceSync joint transmissions on one shared
// spatial-reuse simulator, and reduces medians in placement order.
func RunCellSweep(o CellSweepOptions) CellSweepResult {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	// Widen the floor to hold every cell; height (and the 8-25 m client
	// annulus) stay as in the single-cell experiment.
	env.Width = float64(o.Cells) * cellSpacing(o.CSRangeM)
	m := mac.Default(cfg)
	model := netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload)
	ec := engine.Config{Seed: o.Seed, Workers: o.Workers, Monitor: o.Monitor}

	rows := engine.Grid(ec, len(o.ClientsPer), o.Placements, func(pt, pl int, rng *rand.Rand) sweepPlacement {
		return drainPlacement(buildMultiCell(rng, env, m, o, model, o.ClientsPer[pt]), rng)
	})

	res := CellSweepResult{Points: make([]CellSweepPoint, len(o.ClientsPer))}
	for pt := range o.ClientsPer {
		mp, agg := reducePlacements(rows[pt])
		res.Points[pt] = CellSweepPoint{ClientsPerCell: o.ClientsPer[pt], SweepStats: newSweepStats(mp, agg)}
	}
	return res
}

// CellCountPoint is one point of the capacity-vs-area curve: the shared
// sweep statistics at a fixed cell count (MeanUtilization approaches
// Cells under saturation).
type CellCountPoint struct {
	Cells int
	SweepStats
}

// RunCellCountSweep traces aggregate capacity versus the number of
// spatially separated cells at a fixed client density — the AirSync-style
// capacity-vs-area curve the event-driven per-neighborhood clock makes
// honest (a global round clock would idle short cells against long ones).
// Each point widens the floor to hold `cells` cells and re-places APs and
// clients Placements times.
func RunCellCountSweep(o CellSweepOptions, cellCounts []int, clientsPer int) []CellCountPoint {
	cfg := Profile80211()
	m := mac.Default(cfg)
	model := netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload)
	ec := engine.Config{Seed: o.Seed, Workers: o.Workers, Monitor: o.Monitor}

	rows := engine.Grid(ec, len(cellCounts), o.Placements, func(pt, pl int, rng *rand.Rand) sweepPlacement {
		oc := o
		oc.Cells = cellCounts[pt]
		env := testbed.Mesh(cfg)
		env.Width = float64(oc.Cells) * cellSpacing(oc.CSRangeM)
		return drainPlacement(buildMultiCell(rng, env, m, oc, model, clientsPer), rng)
	})

	out := make([]CellCountPoint, len(cellCounts))
	for pt := range cellCounts {
		mp, agg := reducePlacements(rows[pt])
		out[pt] = CellCountPoint{Cells: cellCounts[pt], SweepStats: newSweepStats(mp, agg)}
	}
	return out
}

// CSRangePoint is one point of the capacity-vs-carrier-sense curve: the
// shared sweep statistics at a fixed carrier-sense range.
type CSRangePoint struct {
	CSRangeM float64
	SweepStats
}

// RunCSRangeSweep traces aggregate capacity versus carrier-sense range at
// a fixed cell count and client density — the other axis of the
// capacity-vs-area picture. A shorter range packs the cells tighter
// (cellSpacing scales with CSRangeM), so more neighborhoods reuse the
// medium concurrently but more of their frames collide at shared
// receivers as hidden terminals; a longer range spaces the cells out and
// serializes them. The interference model prices that tradeoff: the
// HiddenRate and per-rate corruption columns quantify what denser reuse
// costs.
func RunCSRangeSweep(o CellSweepOptions, csRanges []float64, clientsPer int) []CSRangePoint {
	cfg := Profile80211()
	m := mac.Default(cfg)
	model := netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload)
	ec := engine.Config{Seed: o.Seed, Workers: o.Workers, Monitor: o.Monitor}

	rows := engine.Grid(ec, len(csRanges), o.Placements, func(pt, pl int, rng *rand.Rand) sweepPlacement {
		oc := o
		oc.CSRangeM = csRanges[pt]
		env := testbed.Mesh(cfg)
		env.Width = float64(oc.Cells) * cellSpacing(oc.CSRangeM)
		return drainPlacement(buildMultiCell(rng, env, m, oc, model, clientsPer), rng)
	})

	out := make([]CSRangePoint, len(csRanges))
	for pt := range csRanges {
		mp, agg := reducePlacements(rows[pt])
		out[pt] = CSRangePoint{CSRangeM: csRanges[pt], SweepStats: newSweepStats(mp, agg)}
	}
	return out
}
