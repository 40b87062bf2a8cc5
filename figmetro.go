package sourcesync

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/lasthop"
	"repro/internal/mac"
	"repro/internal/modem"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// ----------------------------------------------------------------- metro

// MetroOptions configures the city-scale deployment experiment: a
// CellsX x CellsY grid of WLAN cells — a metro neighborhood rather than
// one office floor — with the per-cell client density swept, every
// downlink priced by the rate-aware interference model, and the
// interference scan bounded by InterferenceRangeM so the spatially indexed
// scheduler settles each frame against nearby transmitters only. The
// experiment asks SourceSync's density question at the scale the paper
// gestures at: does joint service keep its edge when hundreds of cells and
// thousands of clients share the air?
type MetroOptions struct {
	Seed       int64
	Placements int // random city layouts per density point
	CellsX     int // cells per city row
	CellsY     int // cells per city column (CellsX*CellsY cells total)
	APsPerCell int
	ClientsPer []int // density sweep: clients per cell, one map point each
	Packets    int   // downlink packets per client
	Payload    int
	CSRangeM   float64 // carrier-sense range between transmitters (meters)
	// InterferenceRangeM bounds each settled frame's interference scan to
	// transmitters within this radius of the receiver; it should
	// comfortably exceed CSRangeM plus the longest serving link so nothing
	// above the noise floor is missed.
	InterferenceRangeM float64
	// WindowSec switches every run to fixed-time-window saturation mode
	// (unbounded backlogs drained for this many virtual seconds). 0 drains
	// the fixed per-client backlogs.
	WindowSec float64
	// Workers bounds the engine's parallelism: 0 uses one worker per CPU,
	// 1 runs serially. Results are identical either way.
	Workers int
	// Monitor optionally observes the run (trial progress) and lets the
	// caller cancel it cooperatively; a canceled run's output must be
	// discarded. Nil is free. See engine.Monitor.
	Monitor *engine.Monitor
}

// DefaultMetroOptions returns the parameters used by ssbench: a 10x10-cell
// city (100 cells, two APs each) with per-cell density swept 4..12 clients
// — 400 to 1200 concurrent downlink flows — on a 60 m cell pitch with
// 45 m carrier sense and a 150 m interference horizon.
func DefaultMetroOptions() MetroOptions {
	return MetroOptions{
		Seed: 17, Placements: 3, CellsX: 10, CellsY: 10, APsPerCell: 2,
		ClientsPer: []int{4, 8, 12}, Packets: 20, Payload: 1460,
		CSRangeM: 45, InterferenceRangeM: 150,
	}
}

// Cells returns the total cell count of the city grid.
func (o MetroOptions) Cells() int { return o.CellsX * o.CellsY }

// MetroPoint is one density point of the capacity map: the shared sweep
// statistics at a fixed per-cell client count.
type MetroPoint struct {
	ClientsPerCell int
	Clients        int // total concurrent downlink flows (Cells * ClientsPerCell)
	SweepStats
}

// MetroResult is the capacity-by-density map.
type MetroResult struct {
	Points []MetroPoint
}

// metroPoint draws a point uniformly in the square of half-width h around
// center, rejected until accept holds. Sampling is local to the cell —
// rejection over the whole city floor would burn thousands of draws per
// client — so layout cost stays O(clients), not O(clients * floor area).
func metroPoint(rng *rand.Rand, center testbed.Point, h float64, attempts int, accept func(testbed.Point) bool) testbed.Point {
	var p testbed.Point
	for i := 0; i < attempts; i++ {
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

// buildMetro lays one city out: cell centers on a CellsX x CellsY grid,
// APs within 10 m of their center (spread at least 4 m apart), clients
// 8-25 m from the nearest AP of their own cell — the same per-cell
// geometry as cellsweep, tiled in two dimensions. Client flows are ordered
// cell-major (row-major over the grid), so runs reduce deterministically.
func buildMetro(rng *rand.Rand, env *testbed.Testbed, m mac.Params, o MetroOptions, model netsim.InterferenceModel, clientsPer int) lasthop.Cell {
	spacing := cellSpacing(o.CSRangeM)
	nClients := o.Cells() * clientsPer
	cell := lasthop.Cell{
		Mac:                m,
		PayloadBytes:       o.Payload,
		Links:              make([][]testbed.Link, 0, nClients),
		APPos:              make([][]testbed.Point, 0, nClients),
		ClientPos:          make([]testbed.Point, 0, nClients),
		PacketsPerClient:   o.Packets,
		CSRangeM:           o.CSRangeM,
		Model:              model,
		Env:                env,
		InterferenceRangeM: o.InterferenceRangeM,
		WindowSec:          o.WindowSec,
	}
	for cy := 0; cy < o.CellsY; cy++ {
		for cx := 0; cx < o.CellsX; cx++ {
			center := testbed.Point{
				X: spacing/2 + float64(cx)*spacing,
				Y: spacing/2 + float64(cy)*spacing,
			}
			aps := make([]testbed.Point, o.APsPerCell)
			for a := range aps {
				aps[a] = metroPoint(rng, center, 10, 100000, apNear(center, aps[:a]))
			}
			for k := 0; k < clientsPer; k++ {
				pos := metroPoint(rng, center, 35, 100000, servedBy(aps))
				links := make([]testbed.Link, o.APsPerCell)
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

// RunMetro traces the joint-vs-best-single-AP capacity map against per-cell
// client density across the city grid: every density point re-places the
// whole city Placements times, drains each layout once under each serving
// mode, and reduces medians in placement order. The interference model is
// rate-aware throughout — the metro question is precisely how interference
// scales with density.
func RunMetro(o MetroOptions) MetroResult {
	cfg := Profile80211()
	env := testbed.Mesh(cfg)
	spacing := cellSpacing(o.CSRangeM)
	env.Width = float64(o.CellsX) * spacing
	env.Height = float64(o.CellsY) * spacing
	m := mac.Default(cfg)
	model := netsim.NewRateAware(cfg, modem.StandardRates(), o.Payload)
	ec := engine.Config{Seed: o.Seed, Workers: o.Workers, Monitor: o.Monitor}

	rows := engine.Grid(ec, len(o.ClientsPer), o.Placements, func(pt, pl int, rng *rand.Rand) sweepPlacement {
		return drainPlacement(buildMetro(rng, env, m, o, model, o.ClientsPer[pt]), rng)
	})

	res := MetroResult{Points: make([]MetroPoint, len(o.ClientsPer))}
	for pt := range o.ClientsPer {
		mp, agg := reducePlacements(rows[pt])
		res.Points[pt] = MetroPoint{
			ClientsPerCell: o.ClientsPer[pt],
			Clients:        o.Cells() * o.ClientsPer[pt],
			SweepStats:     newSweepStats(mp, agg),
		}
	}
	return res
}
