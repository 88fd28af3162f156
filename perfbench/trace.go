package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"pclouds/internal/obs"
)

// tracer keeps every span of a traced run in memory and writes one Chrome
// trace at exit. Spans are grouped in lanes, one per goroutine that calls
// into the program (a rank, an HTTP connection, a load-generator worker);
// a lane's spans nest by time, which is how self times are computed after
// the run. A nil *tracer and a nil *lane record nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
	named map[string]*lane
}

// lane is one timeline of the trace.
type lane struct {
	tr    *tracer
	name  string
	tid   int
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Times are seconds since the tracer's epoch.
type span struct {
	Name       string
	ID         string
	Start, End float64
	// Sim is the cost-model (simulated) self time, set on the pclouds
	// phase spans imported from obs.Recorder.
	Sim float64
	// Self is End-Start minus the time covered by direct children; it is
	// filled in by analyse.
	Self float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), named: map[string]*lane{}}
}

// lane returns the named lane, creating it on first use.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.named[name]; ok {
		return l
	}
	l := &lane{tr: t, name: name, tid: len(t.lanes) + 1}
	t.lanes = append(t.lanes, l)
	t.named[name] = l
	return l
}

// now returns the current trace time (0 on a nil lane).
func (l *lane) now() float64 {
	if l == nil {
		return 0
	}
	return time.Since(l.tr.epoch).Seconds()
}

// done records a span named name from start until now and returns its
// duration in seconds.
func (l *lane) done(name string, start float64) float64 { return l.doneID(name, "", start) }

// doneID is done with an identifier shared by the spans of one request.
func (l *lane) doneID(name, id string, start float64) float64 {
	if l == nil {
		return 0
	}
	end := time.Since(l.tr.epoch).Seconds()
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, ID: id, Start: start, End: end})
	l.mu.Unlock()
	return end - start
}

// importObs copies an obs.Recorder's completed spans into the lane as
// "pclouds.<phase>" spans. recEpoch is the trace time at which the
// recorder was created, so its relative timestamps land on this timeline.
func (l *lane) importObs(rec *obs.Recorder, recEpoch float64) {
	if l == nil || rec == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range rec.Spans() {
		start := recEpoch + s.StartWall
		l.spans = append(l.spans, span{
			Name: "pclouds." + s.Name, ID: s.ID,
			Start: start, End: start + s.DurWall, Sim: s.SelfSim(),
		})
	}
}

// nestSlack absorbs the sub-microsecond offset between the obs recorder's
// clock epoch and the tracer's, so a child that starts a hair before its
// parent on the other clock still nests inside it.
const nestSlack = 2e-6

// analyse sorts every lane's spans by start and fills in self times: a
// span's self time is its duration minus the durations of the spans
// directly nested inside it.
func (t *tracer) analyse() {
	if t == nil {
		return
	}
	for _, l := range t.lanes {
		l.mu.Lock()
		analyseLane(l.spans)
		l.mu.Unlock()
	}
}

func analyseLane(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if spans[i].Start < top.End && spans[i].End <= top.End+nestSlack {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[stack[len(stack)-1]].Self -= spans[i].End - spans[i].Start
		}
		stack = append(stack, i)
	}
}

// selfByName sums analysed self times by span name over the lanes whose
// name passes keep (all lanes when keep is nil).
func (t *tracer) selfByName(keep func(lane string) bool) map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	for _, l := range t.lanes {
		if keep != nil && !keep(l.name) {
			continue
		}
		l.mu.Lock()
		for _, s := range l.spans {
			out[s.Name] += s.Self
		}
		l.mu.Unlock()
	}
	return out
}

// spansNamed returns copies of every span with the given name.
func (t *tracer) spansNamed(name string) []span {
	var out []span
	if t == nil {
		return out
	}
	for _, l := range t.lanes {
		l.mu.Lock()
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
		l.mu.Unlock()
	}
	return out
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the whole trace as one Chrome trace_event file,
// loadable in ui.perfetto.dev, one row per lane.
func (t *tracer) writeChrome(path string) error {
	events := []chromeEvent{}
	for _, l := range t.lanes {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: l.tid,
			Args: map[string]any{"name": l.name}})
		l.mu.Lock()
		for _, s := range l.spans {
			args := map[string]any{"self_us": s.Self * 1e6}
			if s.ID != "" {
				args["id"] = s.ID
			}
			if s.Sim != 0 {
				args["sim_self_s"] = s.Sim
			}
			events = append(events, chromeEvent{Name: s.Name, Ph: "X", Pid: 1, Tid: l.tid,
				Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6, Args: args})
		}
		l.mu.Unlock()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
