package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`   // <module>.<call>
	Unit   string        `json:"unit"`   // design, edit or request the span belongs to
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	gc0 float64 // end-to-end root spans: GC CPU seconds at the start
}

// asideRoot names the root span of calls made again only to time a
// layer. They are not part of the program's own work, so they stay out
// of the end-to-end self-time sums.
const asideRoot = "aside"

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	vals  map[string][]float64 // per-call observations that are not durations
	gcCPU float64              // GC CPU seconds accrued inside end-to-end root spans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), vals: make(map[string][]float64)}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent int, name, unit string) int {
	if t == nil {
		return -1
	}
	var gc0 float64
	if isE2ERoot(parent, name) {
		gc0 = gcCPUSeconds()
	}
	now := time.Since(t.t0)
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Unit: unit, Start: now, End: -1, gc0: gc0})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	s := &t.spans[id]
	s.End = now
	if isE2ERoot(s.Parent, s.Name) {
		t.gcCPU += gcCPUSeconds() - s.gc0
	}
}

// isE2ERoot reports whether a span is the root of one end-to-end
// operation (a design, an edit or a verdict), as opposed to a child
// span or the root of an aside re-run.
func isE2ERoot(parent int, name string) bool {
	return parent < 0 && name != asideRoot
}

// do runs fn inside a span.
func (t *tracer) do(parent int, name, unit string, fn func()) {
	id := t.begin(parent, name, unit)
	fn()
	t.end(id)
}

// observe records a per-call value under name.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.vals[name] = append(t.vals[name], v)
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as JSON, once, when the run ends.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (concurrent requests), so the covered part is the union of their
// intervals, clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// inside p.
func covered(p span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name  string
	Calls int
	P50ms float64
	Self  time.Duration // summed self time, end-to-end spans only
	Aside bool          // every span of this name was an aside re-run
}

// layerReport aggregates spans by name. Self time is summed only over
// spans outside aside trees; total is that sum over all names, the
// denominator of the self-time shares.
func layerReport(spans []span) (stats []layerStat, total time.Duration) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	aside := func(s span) bool {
		for {
			if s.Name == asideRoot {
				return true
			}
			p, ok := byID[s.Parent]
			if !ok {
				return false
			}
			s = p
		}
	}
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	agg := make(map[string]*layerStat)
	var names []string
	for _, s := range spans {
		st, ok := agg[s.Name]
		if !ok {
			st = &layerStat{Name: s.Name, Aside: true}
			agg[s.Name] = st
			names = append(names, s.Name)
		}
		st.Calls++
		durs[s.Name] = append(durs[s.Name], ms(s.End-s.Start))
		if !aside(s) {
			st.Aside = false
			st.Self += self[s.ID]
			total += self[s.ID]
		}
	}
	sort.Strings(names)
	for _, n := range names {
		st := agg[n]
		st.P50ms = medianOf(durs[n])
		stats = append(stats, *st)
	}
	return stats, total
}

// layerOf is the module part of a span name.
func layerOf(name string) string {
	mod, _, _ := strings.Cut(name, ".")
	return mod
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
