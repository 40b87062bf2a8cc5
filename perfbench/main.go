// Command perfbench is the repository's benchmark: three seeded workloads
// that each drive one part of the system end to end and report its
// numbers in units of real work.
//
//	city  netsim at city scale: a metro-style layout of SourceSync joint
//	      downlinks drained through netsim.New / AddFlow / Step with the
//	      hooks lasthop.Cell.RunJoint installs (simulated MAC attempts).
//	phy   the waveform PHY: joint frames synthesized by
//	      phy.JointSimConfig.Run and decoded by phy.JointReceiver.Receive,
//	      next to single-sender modem frames (frames and decoded bytes).
//	jobs  the job service: an in-process ssserve behind httptest, driven
//	      by two closed-loop clients submitting quick experiments (jobs).
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload city|phy|jobs --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is timed untraced and reports the end-to-end
// metrics BENCHMARK.json lists; with --trace 1 it alternates untraced
// units of work with units that record spans around every call into a
// layer, reports the per-layer metrics, and writes the spans under
// .bench_build/trace/. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed   int64
	window time.Duration // measured time of one timed pass
	trace  bool
	// traceFile is where the traced pass writes its spans.
	traceFile string
}

// outcome is what a workload hands back: its operation counts and the
// metric values it measured, keyed by the names BENCHMARK.json declares.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// problems describes each failed operation, for standard error.
	problems []string
	// summary lines go to standard error ahead of the result.
	summary []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each --workload name to its runner and to the metric-name
// prefixes of the layers it exercises. A per-layer metric of a layer the
// workload bypasses is reported as 0: the layer did no work.
var workloads = map[string]struct {
	run    func(runConfig) (*outcome, error)
	layers []string
}{
	"city": {runCity, []string{"testbed.", "netsim.", "delivery.", "samplerate.", "city."}},
	"phy":  {runPhy, []string{"phy.", "modem."}},
	"jobs": {runJobs, []string{"serve.", "experiments.", "engine."}},
}

// tracePrefix names the metrics every workload's traced run reports.
const tracePrefix = "trace."

func main() {
	name := flag.String("workload", "", "workload to run: city, phy or jobs")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 10, "measured seconds per timed pass")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass, 0 the timed end-to-end pass")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want city, phy or jobs)", name)
	}
	if seconds <= 0 || traced < 0 || traced > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	rc := runConfig{
		seed:   seed,
		window: time.Duration(seconds * float64(time.Second)),
		trace:  traced == 1,
	}
	if rc.trace {
		dir := filepath.Join(".bench_build", "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		rc.traceFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv.gz", name, seed))
	}
	out, err := w.run(rc)
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if rc.trace {
		declared = spec.PerLayer
	}
	exercised := func(metric string) bool { return owned(metric, w.layers) }
	if !rc.trace {
		exercised = func(string) bool { return true } // every workload measures every end-to-end metric
	}
	metrics, err := assemble(declared, out.metrics, exercised)
	if err != nil {
		return err
	}

	for _, line := range out.summary {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, line)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "%s: FAILED %s\n", name, p)
	}
	for _, m := range declared {
		fmt.Fprintf(os.Stderr, "%s: %-42s %14.6g %s\n", name, m.Name, metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// lists, which fix the names and units it reports.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// assemble checks the measured values against the declared metrics: every
// declared metric the workload exercises must have been measured, one of a
// layer it bypasses reads 0, and nothing undeclared may be reported.
func assemble(declared []metricSpec, measured map[string]float64, exercised func(string) bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := measured[m.Name]
		if !ok && exercised(m.Name) {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// owned reports whether metric belongs to one of the workload's layers or
// to the tracer, which every traced run reports.
func owned(metric string, layers []string) bool {
	if strings.HasPrefix(metric, tracePrefix) {
		return true
	}
	return slices.ContainsFunc(layers, func(p string) bool { return strings.HasPrefix(metric, p) })
}

// rssMB is the process's resident set size in MiB, from /proc/self/statm.
// Workloads sample it as each unit of work completes and report the
// median: a peak would be set by where the garbage collector happened to
// run, the median by what the workload keeps resident.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// now and since are the benchmark's only wall-clock reads.
func now() time.Time { return time.Now() } //sslint:allow detwallclock benchmark timing; measured durations are reported, never fed back into the workload

func since(t time.Time) time.Duration { return time.Since(t) } //sslint:allow detwallclock benchmark timing; measured durations are reported, never fed back into the workload

// windowSpent reports whether a run that has spent spent on n units of
// work should stop: another unit, at the mean time per unit so far, would
// end further past the window than stopping now falls short of it. The run
// thus measures as close to the window as whole units allow.
func windowSpent(spent time.Duration, n int, window time.Duration) bool {
	return n > 0 && spent+spent/time.Duration(2*n) > window
}

// median returns the median of xs (NaN when empty) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
