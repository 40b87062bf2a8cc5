package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// tinyCity drains in milliseconds; the checks below run on it.
var tinyCity = cityConfig{
	cellsX: 3, cellsY: 2, apsPerCell: 2, clientsPerCell: 3,
	packets: 3, payload: 1460, csRangeM: 45, ixRangeM: 150,
}

func TestCityHarnessMatchesRunJoint(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		if bad := checkCityEquivalence(cityEquivalence, seed); len(bad) > 0 {
			t.Errorf("seed %d: %d clients differ, first: %s", seed, len(bad), bad[0])
		}
	}
}

func TestCityDrainIsCheckedAndRepeats(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		o := &outcome{metrics: map[string]float64{}}
		drains, setups, err := cityPass(o, tinyCity, seed, time.Millisecond, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(drains) != 2 || drains[0].spans != nil || drains[1].spans == nil {
			t.Fatalf("seed %d: want an untraced then a traced drain, got %d drains", seed, len(drains))
		}
		if o.failed != 0 {
			t.Fatalf("seed %d: %d failed: %v", seed, o.failed, o.problems)
		}
		if len(setups) < citySetups {
			t.Errorf("timed %d set-ups, want at least %d", len(setups), citySetups)
		}
		if st := drains[0].stats; st.attempts == 0 || st.delivered+st.dropped != tinyCity.flows()*tinyCity.packets {
			t.Errorf("seed %d: implausible statistics %+v", seed, st)
		}
	}
}

func TestCityCheckCountsLostFrames(t *testing.T) {
	o := &outcome{}
	d := cityDrain{stats: cityStats{delivered: 1}}
	checkCityDrain(o, tinyCity, d, nil)
	if want := tinyCity.flows() * tinyCity.packets; o.attempted != want || o.failed != want {
		t.Errorf("attempted %d failed %d, want %d of %d", o.attempted, o.failed, want, want)
	}
}

// TestCitySpansAddUp checks the traced drain's accounting: every Step's
// hook and Settle spans are its children, so self time plus children is
// the Step total.
func TestCitySpansAddUp(t *testing.T) {
	d, err := runCityDrain(tinyCity, 3, newTracer(now()))
	if err != nil {
		t.Fatal(err)
	}
	ks := summarize(d.spans)
	var children int64
	for _, s := range d.spans {
		if s.parent >= 0 && d.spans[s.parent].kind == kStep {
			children += s.end - s.start
		}
		if s.end < s.start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	if got, want := ks[kStep].selfNs+children, ks[kStep].totalNs; got != want {
		t.Errorf("self %d + children %d != Step total %d", ks[kStep].selfNs, children, want)
	}
	if ks[kDeliver].calls == 0 || ks[kPrepare].calls == 0 || ks[kAddFlow].calls != tinyCity.flows() {
		t.Errorf("missing hook spans: %+v", ks)
	}
}

// tinyPhyRound keeps a few short joint frames and one long single-sender
// frame of the seed's round.
func tinyPhyRound(seed int64, profiles []*phyProfile) []phyRoundSpec {
	var out []phyRoundSpec
	baseline := false
	for _, s := range phyRound(seed, profiles) {
		switch {
		case !s.long && len(out) < 6:
			out = append(out, s)
		case s.numCo == 0 && s.prof == 0 && !baseline:
			out = append(out, s)
			baseline = true
		}
	}
	return out
}

func TestPhyRoundsRepeatAndDecode(t *testing.T) {
	profiles := setUpPhy()
	for _, seed := range []int64{1, 2} {
		o := &outcome{metrics: map[string]float64{}}
		specs := tinyPhyRound(seed, profiles)
		rounds := phyPass(o, specs, profiles, time.Millisecond, true)
		if o.failed != 0 {
			t.Fatalf("seed %d: %d failed: %v", seed, o.failed, o.problems)
		}
		if len(rounds) != 2 || rounds[0].spans != nil || rounds[1].spans == nil {
			t.Fatalf("seed %d: want an untraced then a traced round, got %d rounds", seed, len(rounds))
		}
		a := rounds[0].fingerprint()
		if a.crcOK == 0 {
			t.Errorf("seed %d: no joint frame decoded: %+v", seed, a)
		}
		if n := summarize(rounds[1].spans)[kPhyRx].calls; n != a.frames {
			t.Errorf("seed %d: %d receive spans for %d joint frames", seed, n, a.frames)
		}
	}
}

// TestPhyWorkIsTheSameUnderEverySeed checks that a seed changes what the
// frames carry, not how much work they are: every seed's round has the
// same frames in the same order with the same sizes.
func TestPhyWorkIsTheSameUnderEverySeed(t *testing.T) {
	profiles := setUpPhy()
	a, b := phyRound(1, profiles), phyRound(2, profiles)
	if len(a) != len(b) {
		t.Fatalf("rounds of %d and %d frames", len(a), len(b))
	}
	sizes := map[int]bool{}
	for i := range a {
		x, y := a[i], b[i]
		x.seedOf, y.seedOf = 0, 0
		if x != y {
			t.Fatalf("frame %d: %+v under seed 1, %+v under seed 2", i, a[i], b[i])
		}
		sizes[x.size] = true
	}
	for _, want := range []int{phyShortMin, phyShortMax, phyLong} {
		if !sizes[want] {
			t.Errorf("no frame of %d B in %v", want, sizes)
		}
	}
}

func TestPhyUntracedPassTimesThreeRounds(t *testing.T) {
	profiles := setUpPhy()
	o := &outcome{metrics: map[string]float64{}}
	if rounds := phyPass(o, tinyPhyRound(1, profiles), profiles, time.Millisecond, false); len(rounds) != 3 {
		t.Errorf("%d timed rounds, want 3", len(rounds))
	}
	if o.failed != 0 {
		t.Errorf("%d failed: %v", o.failed, o.problems)
	}
}

// cheapExperiments keep the service checks fast.
var cheapExperiments = []string{"overhead", "fig14", "metro"}

func TestJobsServeGoldenAndDirectBytes(t *testing.T) {
	t.Chdir("..") // the golden files are named from the repository root
	js, err := startJobServer()
	if err != nil {
		t.Fatal(err)
	}
	defer js.close()
	o := &outcome{metrics: map[string]float64{}}
	trials, runMs := goldenPass(o, js, cheapExperiments)
	if trials == 0 || len(runMs) != len(cheapExperiments) {
		t.Errorf("golden pass: %d trials, run times %v", trials, runMs)
	}
	p := runJobsPass(js, cheapExperiments, 2, 300*time.Millisecond, true)
	if _, err := verifyJobs(o, p.records); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d failed: %v", o.failed, o.problems)
	}
	if len(missLatencies(p.records)) == 0 || len(p.spans) == 0 {
		t.Errorf("no completed misses or spans: %d records, %d spans", len(p.records), len(p.spans))
	}
}

func TestJobsVerifyCatchesWrongBytes(t *testing.T) {
	o := &outcome{}
	recs := []jobRecord{{experiment: "overhead", seed: 3, output: []byte("not the table\n")}}
	if _, err := verifyJobs(o, recs); err != nil {
		t.Fatal(err)
	}
	if o.attempted != 1 || o.failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 of 1", o.attempted, o.failed)
	}
}

func TestAssemble(t *testing.T) {
	declared := []metricSpec{{"phy.frames", "count"}, {"netsim.attempts", "count"}}
	city := func(m string) bool { return owned(m, workloads["city"].layers) }
	got, err := assemble(declared, map[string]float64{"netsim.attempts": 7}, city)
	if err != nil {
		t.Fatal(err)
	}
	if got["phy.frames"].Value != 0 || got["netsim.attempts"].Value != 7 || got["netsim.attempts"].Unit != "count" {
		t.Errorf("assemble = %v", got)
	}
	if _, err := assemble(declared, map[string]float64{}, city); err == nil {
		t.Error("a metric of an exercised layer went missing without an error")
	}
	if _, err := assemble(declared, map[string]float64{"netsim.attempts": 7, "extra": 1}, city); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

// TestBenchmarkSpec holds BENCHMARK.json and the program together: every
// per-layer metric belongs to some workload's layers, and every submitted
// experiment is registered and has its run-time metric.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
		if strings.HasPrefix(m.Name, tracePrefix) {
			continue
		}
		found := false
		for _, w := range workloads {
			found = found || owned(m.Name, w.layers)
		}
		if !found {
			t.Errorf("per-layer metric %s belongs to no workload", m.Name)
		}
	}
	for _, name := range jobsExperiments {
		if !experiments.IsName(name) {
			t.Errorf("%s is not a registered experiment", name)
		}
		if !slices.Contains(names, "experiments."+name+".run_ms") {
			t.Errorf("BENCHMARK.json lacks experiments.%s.run_ms", name)
		}
	}
	var raw map[string]json.RawMessage
	b, _ := os.ReadFile("../BENCHMARK.json")
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
}
