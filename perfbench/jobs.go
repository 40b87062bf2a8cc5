package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

const (
	// jobsClients closed-loop clients share one server.
	jobsClients = 2
	// jobsWorkers is each job's engine fan-out: the machine's two cores.
	jobsWorkers = 2
	// jobsRepeatEvery: every this many submissions, a client repeats a
	// spec it already completed, so the server answers from its cache.
	jobsRepeatEvery = 4
	// jobsSetups is how many server starts a run times.
	jobsSetups = 41
	// jobTimeout fails a job that has not finished by then.
	jobTimeout = 120 * time.Second
)

// jobsExperiments are the registered experiments the clients submit in
// quick mode, round robin: every experiment registered when the benchmark
// was defined, so a newly registered one does not change the workload.
var jobsExperiments = []string{
	"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "cell", "cellsweep",
	"metro", "crosstraffic", "crosstraffic-spatial", "overhead", "detdelay", "ablations",
	"arrivals", "mobility",
}

// goldenDir holds every experiment's committed quick-mode output at seed 1.
var goldenDir = filepath.Join("internal", "experiments", "testdata", "golden")

// jobRecord is one job as its client saw it.
type jobRecord struct {
	experiment string
	seed       int64
	hit        bool
	rejected   bool // the server answered the submit with 503
	traced     bool // spans were recorded around the job's calls
	submitMs   float64
	latencyMs  float64 // submit to output fetched
	rssMB      float64 // resident MiB once the job's output was fetched
	status     serve.Status
	output     []byte
	err        error
}

// jobServer is an in-process ssserve behind a loopback HTTP listener.
type jobServer struct {
	srv *serve.Server
	ts  *httptest.Server
}

// startJobServer starts the service the way a deployment would — one
// runner, each job fanning out over jobsWorkers engine workers — and
// waits for it to answer /healthz.
func startJobServer() (*jobServer, error) {
	srv := serve.New(serve.Config{MaxRunning: 1})
	js := &jobServer{srv: srv, ts: httptest.NewServer(srv.Handler())}
	resp, err := http.Get(js.ts.URL + "/healthz")
	if err != nil {
		js.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		js.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return js, nil
}

func (js *jobServer) close() {
	js.ts.Close()
	js.srv.Close()
}

// jobClient is one closed-loop caller: it submits a job, waits for it on
// the progress stream, fetches the output, and only then submits the next.
type jobClient struct {
	base string
	http *http.Client
	tr   *tracer
	rng  *rand.Rand
	// names are the experiments the client submits, round robin from
	// start; fresh counts those submissions.
	names        []string
	start, fresh int
	done         []serve.Spec
	n            int // jobs submitted, for span ids
	id           int
}

// do runs one job end to end, recording spans when traced is set and the
// client has a tracer.
func (c *jobClient) do(spec serve.Spec, traced bool) (rec jobRecord) {
	rec = jobRecord{experiment: spec.Experiment, seed: *spec.Seed}
	jobID := c.id<<24 | c.n
	c.n++
	tr := c.tr
	if !traced {
		tr = nil
	}
	rec.traced = tr != nil
	start := now()
	tr.begin(kJob, jobID)
	defer func() {
		tr.end()
		rec.latencyMs = ms(since(start))
	}()

	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	tr.begin(kSubmit, jobID)
	t0 := now()
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		rec.rejected = resp.StatusCode == http.StatusServiceUnavailable
		err = decodeStatus(resp, http.StatusAccepted, &rec.status)
	}
	rec.submitMs = ms(since(t0))
	tr.end()
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}

	tr.begin(kStream, jobID)
	streamStart := tr.nowNs()
	err = c.stream(rec.status.ID, &rec.status)
	if tr != nil {
		// The server's queued and run phases, laid end to end so the run
		// phase ends when the stream reported the job terminal.
		end := tr.nowNs()
		runStart := end - int64(rec.status.RunMs*1e6)
		tr.add(kRun, jobID, runStart, end)
		tr.add(kQueued, jobID, max(streamStart, runStart-int64(rec.status.QueuedMs*1e6)), runStart)
	}
	tr.end()
	if err != nil {
		rec.err = fmt.Errorf("stream: %w", err)
		return rec
	}
	if rec.status.State != serve.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", rec.status.ID, rec.status.State, rec.status.Error)
		return rec
	}
	rec.hit = rec.status.CacheHit

	tr.begin(kOutput, jobID)
	rec.output, err = c.get(c.base + "/jobs/" + rec.status.ID + "/output")
	tr.end()
	if err != nil {
		rec.err = fmt.Errorf("output: %w", err)
	}
	return rec
}

// stream follows the job's NDJSON progress stream to its last line.
func (c *jobClient) stream(id string, st *serve.Status) error {
	resp, err := c.http.Get(c.base + "/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var next serve.Status
		if err := dec.Decode(&next); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		*st = next
	}
}

func (c *jobClient) get(url string) ([]byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, err
}

func decodeStatus(resp *http.Response, want int, st *serve.Status) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, st)
}

// nextSpec makes every jobsRepeatEvery-th submission a repeat of one of
// the client's completed specs, chosen by the seed, and otherwise submits
// the next experiment in its round robin at a fresh seed (never 1, which
// the golden pass uses).
func (c *jobClient) nextSpec() serve.Spec {
	if c.n%jobsRepeatEvery == jobsRepeatEvery-1 && len(c.done) > 0 {
		return c.done[c.rng.Intn(len(c.done))]
	}
	seed := 2 + c.rng.Int63n(1<<40)
	name := c.names[(c.start+c.fresh)%len(c.names)]
	c.fresh++
	return serve.Spec{Experiment: name, Seed: &seed, Quick: true, Workers: jobsWorkers}
}

// loop runs jobs until the deadline has passed and the client has
// submitted every experiment the same number of times, so the job mix does
// not depend on where the window ends.
func (c *jobClient) loop(deadline time.Time) []jobRecord {
	var recs []jobRecord
	for now().Before(deadline) || c.fresh%len(c.names) != 0 {
		fresh := c.fresh
		spec := c.nextSpec()
		// Every other fresh spec and every repeat is traced, so traced and
		// untraced misses interleave and cover the same experiments.
		rec := c.do(spec, c.fresh == fresh || c.fresh%2 == 0)
		rec.rssMB = rssMB()
		if rec.err == nil {
			c.done = append(c.done, spec)
		}
		recs = append(recs, rec)
	}
	return recs
}

// jobsPass is one timed window of closed-loop traffic.
type jobsPass struct {
	records []jobRecord
	wall    time.Duration // first submit to last output fetched
	spans   []span
}

func runJobsPass(js *jobServer, names []string, seed int64, window time.Duration, traced bool) jobsPass {
	start := now()
	deadline := start.Add(window)
	type clientResult struct {
		records []jobRecord
		spans   []span
	}
	results := make(chan clientResult, jobsClients)
	for i := 0; i < jobsClients; i++ {
		c := jobClient{
			base:  js.ts.URL,
			http:  &http.Client{Timeout: jobTimeout},
			rng:   rand.New(rand.NewSource(seed*jobsClients + int64(i))),
			names: names,
			start: i * len(names) / jobsClients,
			id:    i,
		}
		if traced {
			c.tr = newTracer(start)
		}
		go func() { //sslint:allow detgoroutine closed-loop benchmark clients; each owns its records and tracer, handed back over channels
			r := clientResult{records: c.loop(deadline)}
			c.http.CloseIdleConnections()
			if c.tr != nil {
				r.spans = c.tr.spans
			}
			results <- r
		}()
	}
	var p jobsPass
	for i := 0; i < jobsClients; i++ {
		r := <-results
		p.records = append(p.records, r.records...)
		p.spans = appendSpans(p.spans, r.spans)
	}
	p.wall = since(start)
	return p
}

// appendSpans concatenates another tracer's spans, re-basing parents.
func appendSpans(dst, src []span) []span {
	base := int32(len(dst))
	for _, s := range src {
		if s.parent >= 0 {
			s.parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// goldenPass submits every experiment at seed 1 through the server and
// checks each output against its committed golden file. It also fills
// the lazily built process-wide tables before the timed window.
func goldenPass(o *outcome, js *jobServer, names []string) (trials int64, runMs map[string]float64) {
	c := jobClient{base: js.ts.URL, http: &http.Client{Timeout: jobTimeout}}
	defer c.http.CloseIdleConnections()
	runMs = map[string]float64{}
	for _, name := range names {
		seed := int64(1)
		o.attempted++
		rec := c.do(serve.Spec{Experiment: name, Seed: &seed, Quick: true, Workers: jobsWorkers}, false)
		if rec.err != nil {
			o.fail("golden %s: %v", name, rec.err)
			continue
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, name+".txt"))
		if err != nil {
			o.fail("golden %s: %v", name, err)
			continue
		}
		if !bytes.Equal(rec.output, want) {
			o.fail("golden %s: seed-1 output differs from %s", name, goldenDir)
		}
		trials += rec.status.Total
		runMs[name] = rec.status.RunMs
	}
	return trials, runMs
}

// verifyJobs counts every timed job as attempted, fails those that did not
// complete, and checks each completed job's bytes against a direct
// experiments.Run of its spec (one direct run per distinct spec).
func verifyJobs(o *outcome, recs []jobRecord) (okBytes int, err error) {
	direct := map[string][]byte{}
	for _, r := range recs {
		o.attempted++
		if r.err != nil {
			o.fail("%s seed %d: %v", r.experiment, r.seed, r.err)
			continue
		}
		key := fmt.Sprintf("%s|%d", r.experiment, r.seed)
		want, ok := direct[key]
		if !ok {
			var buf bytes.Buffer
			if err := experiments.Run(&buf, r.experiment, experiments.Params{Seed: r.seed, Quick: true, Workers: jobsWorkers}); err != nil {
				return 0, fmt.Errorf("direct run of %s: %w", key, err)
			}
			want = buf.Bytes()
			direct[key] = want
		}
		if !bytes.Equal(r.output, want) {
			o.fail("%s seed %d: served output differs from a direct experiments.Run", r.experiment, r.seed)
			continue
		}
		okBytes += len(r.output)
	}
	return okBytes, nil
}

// missLatencies returns the client latency of every completed cache miss.
func missLatencies(recs []jobRecord) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.err == nil && !r.hit {
			xs = append(xs, r.latencyMs)
		}
	}
	return xs
}

func completed(recs []jobRecord) int {
	n := 0
	for _, r := range recs {
		if r.err == nil {
			n++
		}
	}
	return n
}

func runJobs(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	var setups []float64
	var js *jobServer
	for i := 0; i < jobsSetups; i++ {
		if js != nil {
			js.close()
		}
		t0 := now()
		var err error
		if js, err = startJobServer(); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0).Seconds())
	}
	defer js.close()
	goldenTrials, goldenRunMs := goldenPass(o, js, jobsExperiments)

	if !rc.trace {
		p := runJobsPass(js, jobsExperiments, rc.seed, rc.window, false)
		okBytes, err := verifyJobs(o, p.records)
		if err != nil {
			return nil, err
		}
		lat := missLatencies(p.records)
		var rss []float64
		for _, r := range p.records {
			rss = append(rss, r.rssMB)
		}
		o.metrics["setup_s"] = median(setups)
		o.metrics["rss_mb"] = median(rss)
		o.metrics["work_per_s"] = float64(completed(p.records)) / p.wall.Seconds()
		o.metrics["goodput_kb_per_s"] = float64(okBytes) / 1000 / p.wall.Seconds()
		o.metrics["unit_p50_ms"] = quantile(lat, 0.5)
		o.metrics["unit_p90_ms"] = quantile(lat, 0.9)
		o.summary = append(o.summary, fmt.Sprintf("%d jobs (%d cache misses) in %.2fs; jobs_per_s=%.3f job_p50_ms=%.1f job_p90_ms=%.1f",
			len(p.records), len(lat), p.wall.Seconds(), o.metrics["work_per_s"], o.metrics["unit_p50_ms"], o.metrics["unit_p90_ms"]))
		return o, nil
	}

	p := runJobsPass(js, jobsExperiments, rc.seed, rc.window, true)
	if _, err := verifyJobs(o, p.records); err != nil {
		return nil, err
	}
	var submit, overhead, queue, run, hit []float64
	byExp := map[string][]float64{}
	var trials int64
	var runS float64
	hits, done, rejected := 0, 0, 0
	for _, r := range p.records {
		if r.rejected {
			rejected++
		}
		if r.err != nil {
			continue
		}
		done++
		submit = append(submit, r.submitMs)
		if r.hit {
			hits++
			hit = append(hit, r.latencyMs)
			continue
		}
		overhead = append(overhead, r.latencyMs-r.status.QueuedMs-r.status.RunMs)
		queue = append(queue, r.status.QueuedMs)
		run = append(run, r.status.RunMs)
		byExp[r.experiment] = append(byExp[r.experiment], r.status.RunMs)
		trials += r.status.Total
		runS += r.status.RunMs / 1000
	}
	m := o.metrics
	m["serve.submit_ms"] = median(submit)
	m["serve.overhead_ms"] = median(overhead)
	m["serve.queue_ms"] = median(queue)
	m["serve.run_ms"] = median(run)
	m["serve.hit_ms"] = median(hit)
	m["serve.cache_hit_ratio"] = ratio(float64(hits), float64(done))
	m["serve.rejected"] = float64(rejected)
	for _, name := range jobsExperiments {
		xs := byExp[name]
		if len(xs) == 0 {
			xs = []float64{goldenRunMs[name]}
		}
		m["experiments."+name+".run_ms"] = median(xs)
	}
	m["engine.trials"] = float64(goldenTrials)
	m["engine.trials_per_s"] = ratio(float64(trials), runS)
	var plain, traced []jobRecord
	for _, r := range p.records {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	m["trace.overhead_pct"] = 100 * (median(missLatencies(traced))/median(missLatencies(plain)) - 1)
	m["trace.spans"] = float64(len(p.spans))
	if err := writeSpans(rc.traceFile, p.spans); err != nil {
		return nil, err
	}
	return o, nil
}
