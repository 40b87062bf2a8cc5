package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"
)

// spanKind names the layer call a span covers.
type spanKind uint8

const (
	// city: netsim and the hooks RunJoint installs.
	kAddFlow spanKind = iota
	kStep
	kHasTraffic
	kPrepare
	kFrameTime
	kDeliver
	kDone
	kSettle
	// phy: joint frames and the single-sender baseline.
	kPhySim
	kPhyRx
	kModemTx
	kModemRx
	// jobs: HTTP calls, and the job's server-side phases as children.
	kJob
	kSubmit
	kStream
	kOutput
	kQueued
	kRun
	numKinds
)

var kindNames = [numKinds]string{
	"netsim.AddFlow", "netsim.Step", "hook.HasTraffic", "hook.Prepare", "hook.FrameTime",
	"hook.Deliver", "hook.Done", "model.Settle",
	"phy.JointSimConfig.Run", "phy.JointReceiver.Receive", "modem.BuildFrame", "modem.Receiver.Receive",
	"job", "http.POST /jobs", "http.GET /jobs/{id}/stream", "http.GET /jobs/{id}/output",
	"serve.queued", "serve.run",
}

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch; parent indexes the enclosing span (-1 for a root); id is the
// frame, flow, step or job the call served (a Settle span carries the
// frame's rate index: the model never sees the flow).
type span struct {
	start, end int64
	parent     int32
	id         int32
	kind       spanKind
}

// tracer records spans in memory; they are written out once the run
// ends. A nil *tracer records nothing, so instrumented call sites cost one
// nil check when tracing is off. A tracer belongs to one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(k spanKind, id int) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{start: int64(since(t.epoch)), parent: parent, id: int32(id), kind: k})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = int64(since(t.epoch))
	t.open = t.open[:n]
}

// add records a span whose interval was measured elsewhere (a job's
// server-side phases) as a child of the innermost open span.
func (t *tracer) add(k spanKind, id int, start, end int64) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, id: int32(id), kind: k})
}

// nowNs is the tracer clock (0 when tracing is off).
func (t *tracer) nowNs() int64 {
	if t == nil {
		return 0
	}
	return int64(since(t.epoch))
}

// kindStats aggregates the spans of one kind.
type kindStats struct {
	calls   int
	totalNs int64 // summed span durations
	selfNs  int64 // summed durations minus the time covered by direct children
}

// summarize folds spans into per-kind totals and self times. A span's self
// time is its duration minus its direct children's durations (children of
// one span never overlap: the tracer is single-threaded and a span's
// synthesized children are laid end to end).
func summarize(spans []span) [numKinds]kindStats {
	var st [numKinds]kindStats
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		k := &st[s.kind]
		k.calls++
		k.totalNs += s.end - s.start
		k.selfNs += s.end - s.start - child[i]
	}
	return st
}

// writeSpans writes spans as gzip-compressed tab-separated rows: index,
// kind, parent, id, start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(bw, "index\tkind\tparent\tid\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, kindNames[s.kind], s.parent, s.id, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
