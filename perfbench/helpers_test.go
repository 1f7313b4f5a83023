package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/sched"
)

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n, rank int
		ok      bool
	}{
		{n: 100, rank: 89, ok: true}, // p90: samples 91..100 lie beyond it
		{n: 21, rank: 10, ok: true},  // the median itself has ten beyond
		{n: 15, rank: 7, ok: false},  // too few: read at the median
		{n: 14, rank: 7, ok: false},  // the upper median, never below p50
		{n: 1, rank: 0, ok: false},
	} {
		rank, ok := tailRank(tc.n)
		if rank != tc.rank || ok != tc.ok {
			t.Errorf("tailRank(%d) = %d, %v; want %d, %v", tc.n, rank, ok, tc.rank, tc.ok)
		}
		if ok && tc.n-1-rank < minBeyond {
			t.Errorf("tailRank(%d) leaves %d samples beyond", tc.n, tc.n-1-rank)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // unsorted on purpose
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50.5 || d.Tail != 90 || d.TailPct != 90 {
		t.Errorf("summarize(1..100) = %+v; want p50 50.5, p90 90", d)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	msd := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: msd(0), End: msd(100)},
		{ID: 1, Parent: 0, Name: "a.x", Start: msd(10), End: msd(40)},
		{ID: 2, Parent: 0, Name: "b.y", Start: msd(30), End: msd(60)},  // overlaps a.x
		{ID: 3, Parent: 0, Name: "b.y", Start: msd(90), End: msd(120)}, // runs past the parent
		{ID: 4, Parent: 1, Name: "c.z", Start: msd(15), End: msd(25)},
		{ID: 5, Parent: -1, Name: asideRoot, Start: msd(200), End: msd(300)},
		{ID: 6, Parent: 5, Name: "a.x", Start: msd(200), End: msd(250)},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 ms.
	for id, want := range map[int]time.Duration{0: msd(40), 1: msd(20), 2: msd(30), 4: msd(10), 5: msd(50)} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
	stats, total := layerReport(spans)
	// Aside spans stay out of the end-to-end sum: 40+20+30+30+10 ms.
	if total != msd(130) {
		t.Errorf("end-to-end self total = %v, want 130ms", total)
	}
	for _, s := range stats {
		if s.Name == "a.x" && (s.Self != msd(20) || s.Calls != 2 || s.Aside) {
			t.Errorf("a.x = %+v, want self 20ms over 2 calls, not aside", s)
		}
		if s.Name == asideRoot && !s.Aside {
			t.Errorf("aside root not marked aside")
		}
	}
}

// TestGCCPUOnlyInsideEndToEndRoots: collections during an aside re-run
// or between operations are not charged to runtime.gc_cpu_s.
func TestGCCPUOnlyInsideEndToEndRoots(t *testing.T) {
	tr := newTracer()
	runtime.GC()
	aside := tr.begin(-1, asideRoot, "u")
	child := tr.begin(aside, "a.x", "u")
	runtime.GC()
	tr.end(child)
	tr.end(aside)
	if tr.gcCPU != 0 {
		t.Fatalf("gcCPU = %v after GC outside end-to-end roots, want 0", tr.gcCPU)
	}
	root := tr.begin(-1, "bench.op", "u")
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	tr.end(root)
	if tr.gcCPU <= 0 {
		t.Fatalf("gcCPU = %v after GC inside an end-to-end root, want > 0", tr.gcCPU)
	}
}

// TestStopwatchCountsCPU: an operation's CPU time counts the work the
// process does, not time spent off the processor.
func TestStopwatchCountsCPU(t *testing.T) {
	sw := startWatch()
	time.Sleep(100 * time.Millisecond)
	idle := sw.stop()
	if idle.wallMs < 100 || idle.cpuMs > 50 {
		t.Errorf("sleeping 100ms: wall %.1f ms, CPU %.1f ms; want wall >= 100, CPU < 50", idle.wallMs, idle.cpuMs)
	}
	sw = startWatch()
	x := 1.0
	for processCPU()-sw.cpu < 50*time.Millisecond && time.Since(sw.wall) < 5*time.Second {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	busy := sw.stop()
	if busy.cpuMs < 50 || x == 0 {
		t.Errorf("spinning for up to 5s: CPU %.1f ms, want >= 50", busy.cpuMs)
	}
}

func TestPrefixShare(t *testing.T) {
	trace := func(js ...int) *sched.Trace {
		tr := &sched.Trace{}
		for _, j := range js {
			tr.Steps = append(tr.Steps, sched.TraceStep{CurrentJ: j})
		}
		return tr
	}
	for _, tc := range []struct {
		old, cur *sched.Trace
		want     float64
	}{
		{trace(1, 2, 3, 4), trace(1, 2, 5, 6, 7), 2.0 / 5},
		{trace(1, 2, 3), trace(1, 2, 3), 1},
		{trace(9), trace(1, 2), 0},
		{nil, trace(1), 0},
		{trace(1, 2, 3, 4), trace(1, 2), 1}, // new trajectory is a prefix of the old
	} {
		if got := prefixShare(tc.old, tc.cur); got != tc.want {
			t.Errorf("prefixShare = %v, want %v", got, tc.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics the
// runs print in step: the untraced run prints every end-to-end metric,
// the traced run every per-layer one, each with its declared unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	p := &phase{Lat: []float64{1}, CPU: []float64{1}, Layer: map[string]float64{}}
	e2e, _, _ := endToEnd(p, 1, 1, 1, 1, 0)
	layers := perLayer(nil, newTracer(), p, map[string]float64{})
	for _, c := range []struct {
		what string
		want []struct{ Name, Unit string }
		got  map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		if len(c.want) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the run prints %d", c.what, len(c.want), len(c.got))
		}
		for _, m := range c.want {
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, printed as %+v (present %v)", c.what, m.Name, m.Unit, got, ok)
			}
		}
	}
}
