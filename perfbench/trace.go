package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sched"
)

// acc accumulates one layer's work in the traced phase: N counts calls
// (or items, for count-only entries), Ns is time busy, Events is the
// instrumented events the layer handled.
type acc struct {
	N      int64 `json:"n"`
	Ns     int64 `json:"ns"`
	Events int64 `json:"events"`
}

// layerStats maps a layer key to its accumulator. It crosses the process
// boundary as JSON, so vet children report into the parent's totals.
type layerStats map[string]*acc

func (l layerStats) add(key string, n, ns, events int64) {
	a := l[key]
	if a == nil {
		a = &acc{}
		l[key] = a
	}
	a.N += n
	a.Ns += ns
	a.Events += events
}

func (l layerStats) get(key string) acc {
	if a := l[key]; a != nil {
		return *a
	}
	return acc{}
}

func (l layerStats) merge(o layerStats) {
	for k, a := range o {
		l.add(k, a.N, a.Ns, a.Events)
	}
}

// Span categories on the benchmark's own track: the job bracket and the
// layer calls inside it.
const (
	catJob   = flight.CatCLI
	catLayer = flight.CatHarness
)

// tracer records the benchmark's spans around each layer call. Spans stay
// in memory as flight-recorder events on the "perfbench" track and are
// written out once, when the run ends; every span carries the ID of the
// job it belongs to.
type tracer struct {
	epoch  time.Time
	events []flight.Event
	nextID uint64
	layers layerStats
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: layerStats{}}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// open is an in-progress span.
type open struct {
	id    uint64
	cat   flight.Cat
	name  string
	start int64
}

func (t *tracer) begin(cat flight.Cat, name string, parent, job uint64) open {
	t.nextID++
	id := t.nextID
	if job == 0 {
		job = id
	}
	ts := t.now()
	t.events = append(t.events, flight.Event{TS: ts, ID: id, Parent: parent, Kind: flight.KindBegin,
		Cat: cat, Name: name, Args: [4]flight.Arg{flight.A("job", int64(job))}})
	return open{id: id, cat: cat, name: name, start: ts}
}

func (t *tracer) end(o open) int64 {
	ts := t.now()
	t.events = append(t.events, flight.Event{TS: ts, ID: o.id, Kind: flight.KindEnd, Cat: o.cat, Name: o.name})
	return ts - o.start
}

// adopt appends a child process's events, shifted onto this tracer's
// clock (childStart is the child's epoch on it) and ID space, with the
// child's top-level spans re-parented under the given job span.
func (t *tracer) adopt(events []flight.Event, childStart int64, job uint64) {
	base := t.nextID
	for _, e := range events {
		e.TS += childStart
		e.ID += base
		if e.Kind == flight.KindBegin {
			if e.Parent == 0 {
				e.Parent = job
			} else {
				e.Parent += base
			}
			e.Args[0] = flight.A("job", int64(job))
		}
		if e.ID > t.nextID {
			t.nextID = e.ID
		}
		t.events = append(t.events, e)
	}
}

// recording is the benchmark track as a flight recording, for the self
// time table and the Perfetto export.
func (t *tracer) recording() flight.Recording {
	return flight.Recording{Tracks: []flight.TrackData{{ID: 1, Name: "perfbench", Events: t.events}}}
}

// noteRun adds one virtual-runtime run's Result.Stats to the "runtime"
// entries (the sched.* metrics are derived from them; the "sched.run" span
// entry is the caller-side wrapper around sched.Run). The
// phase split is filled in only while the flight recorder is enabled,
// which is exactly the traced phase.
func (t *tracer) noteRun(res *sched.Result) {
	if t == nil || res == nil {
		return
	}
	st := res.Stats
	t.layers.add("runtime", 1, st.PhaseTotalNs, int64(res.Events))
	t.layers.add("runtime.gen", 0, st.PhaseGenNs, int64(res.Events))
	t.layers.add("runtime.handoff", 0, st.PhaseHandoffNs, 0)
	t.layers.add("runtime.analysis", 0, st.PhaseAnalysisNs, 0)
	t.layers.add("runtime.switches", int64(st.Switches), 0, 0)
	t.layers.add("runtime.direct", int64(st.DirectHandoffs), 0, 0)
	t.layers.add("runtime.elided", int64(st.ElidedParks), 0, 0)
	t.layers.add("runtime.loc_hits", int64(st.LocCacheHits), 0, 0)
	t.layers.add("runtime.loc_misses", int64(st.LocCacheMisses), 0, 0)
}

// procSnap is the process-wide state a traced job is measured against:
// GC cycles and pauses, and the fused checker's pass timers.
type procSnap struct {
	gcCycles, gcPauseNs              int64
	pass1N, pass1Ns, pass2N, pass2Ns int64
}

var (
	fusedPass1Count = obs.Default.Counter("harness.fused.pass1.count")
	fusedPass1Ns    = obs.Default.Counter("harness.fused.pass1.ns")
	fusedPass2Count = obs.Default.Counter("harness.fused.pass2.count")
	fusedPass2Ns    = obs.Default.Counter("harness.fused.pass2.ns")
)

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		gcCycles: int64(ms.NumGC), gcPauseNs: int64(ms.PauseTotalNs),
		pass1N: fusedPass1Count.Load(), pass1Ns: fusedPass1Ns.Load(),
		pass2N: fusedPass2Count.Load(), pass2Ns: fusedPass2Ns.Load(),
	}
}

// addProcDelta records what happened process-wide since s.
func (l layerStats) addProcDelta(s procSnap) {
	e := snapProc()
	l.add("gc", e.gcCycles-s.gcCycles, e.gcPauseNs-s.gcPauseNs, 0)
	l.add("fused.pass1", e.pass1N-s.pass1N, e.pass1Ns-s.pass1Ns, 0)
	l.add("fused.pass2", e.pass2N-s.pass2N, e.pass2Ns-s.pass2Ns, 0)
}

// heapAllocs reads the cumulative heap allocation counters without
// stopping the world (runtime.ReadMemStats would, once per schedule).
func heapAllocs() (objects, bytes int64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() + s[1].Value.Uint64()), int64(s[2].Value.Uint64())
}
