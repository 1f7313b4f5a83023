package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/library"
	"repro/internal/op"
)

// ScaleBaseline is the machine-readable scale snapshot `hlsbench -scale`
// writes to BENCH_scale.json: one fresh-synthesis measurement per ladder
// rung plus the incremental re-synthesis comparison. Like PerfBaseline
// it is a regression anchor — later changes compare against these
// numbers with CompareScale — so the schema is versioned and additions
// must keep existing fields.
type ScaleBaseline struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`

	// MaxNodes is the ladder cap the snapshot was measured under
	// (0 = full ladder). The committed baseline stops at 10k so
	// regenerating it stays fast; the nightly CI job runs everything.
	MaxNodes int `json:"max_nodes"`

	Rungs       []ScalePoint       `json:"rungs"`
	Incremental []IncrementalPoint `json:"incremental"`
}

// ScalePoint is one ladder rung: a fresh time-constrained synthesis of a
// large generated graph, with the per-node cost and allocation footprint
// that make asymptotic regressions visible (a healthy engine's ns/node
// grows slowly with N; an accidental O(n²) makes it grow linearly).
type ScalePoint struct {
	Name   string  `json:"name"`
	Nodes  int     `json:"nodes"`
	CS     int     `json:"cs"`
	WallMs float64 `json:"wall_ms"`

	// NsPerNode is WallMs normalized by graph size — the column to read
	// down the ladder when hunting superlinear growth.
	NsPerNode float64 `json:"ns_per_node"`

	// AllocMB is the total bytes allocated during the run (cumulative,
	// from MemStats.TotalAlloc); HeapPeakMB is the live-plus-uncollected
	// heap immediately after the run, an upper estimate of the peak
	// working set.
	AllocMB    float64 `json:"alloc_mb"`
	HeapPeakMB float64 `json:"heap_peak_mb"`
}

// IncrementalPoint compares a one-node edit's incremental re-synthesis
// (core.ResynthesizeCtx replaying the recorded trajectory) against the
// from-scratch run on the same edited graph, asserting at measurement
// time that the two produced identical results.
type IncrementalPoint struct {
	Name          string  `json:"name"`
	Nodes         int     `json:"nodes"`
	FreshMs       float64 `json:"fresh_ms"`
	IncrementalMs float64 `json:"incremental_ms"`
	Speedup       float64 `json:"speedup"`
	Identical     bool    `json:"identical_results"`
}

// MeasureScaleCtx measures the scale ladder up to maxNodes (0 = the full
// ladder, 100k included) and the incremental re-synthesis points.
// Cancellation is observed between and inside every rung (the synthesis
// engines poll the context).
//
// Fresh rungs run with Config.NoTrace: a pure batch run has no replay
// trajectory to keep, and the trace would only add allocation noise to
// the footprint columns. The incremental points keep the trace on for
// their fresh run — that recorded trajectory is exactly what the
// resynthesis replays, so trace-on fresh time is the honest comparator.
func MeasureScaleCtx(ctx context.Context, maxNodes int) (*ScaleBaseline, error) {
	b := &ScaleBaseline{
		SchemaVersion: 1,
		GoVersion:     runtime.Version(),
		MaxNodes:      maxNodes,
	}
	// The incremental points run first: the big ladder rungs leave a
	// multi-gigabyte heap behind, and the GC tax of scanning it would
	// inflate every timing taken afterwards.
	for _, nodes := range []int{1_000, 5_000, 10_000} {
		if maxNodes > 0 && nodes > maxNodes {
			continue
		}
		p, err := measureIncremental(ctx, nodes)
		if err != nil {
			return nil, err
		}
		b.Incremental = append(b.Incremental, p)
	}
	for _, rung := range benchmarks.Scale() {
		if maxNodes > 0 && rung.Nodes > maxNodes {
			continue
		}
		p, err := measureRung(ctx, rung)
		if err != nil {
			return nil, err
		}
		b.Rungs = append(b.Rungs, p)
	}
	// Recorded after the timed work, not at construction: the snapshot
	// must state the parallelism the measurements actually ran under,
	// even if something resized GOMAXPROCS mid-run.
	b.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return b, nil
}

func measureRung(ctx context.Context, rung *benchmarks.ScaleExample) (ScalePoint, error) {
	g := rung.Graph()
	cs := g.CriticalPathCycles() + rung.Slack
	cfg := core.Config{CS: cs, NoTrace: true}
	// Best of two runs for the small rungs; the big ones are long enough
	// that scheduler noise is negligible and a repeat would dominate the
	// whole measurement.
	reps := 2
	if rung.Nodes > 20_000 {
		reps = 1
	}
	p := ScalePoint{Name: rung.Name, Nodes: rung.Nodes, CS: cs}
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if _, err := core.SynthesizeCtx(ctx, g, cfg); err != nil {
			return p, fmt.Errorf("experiments: scale rung %s: %w", rung.Name, err)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		ms := float64(wall.Microseconds()) / 1000
		if rep == 0 || ms < p.WallMs {
			p.WallMs = ms
			p.NsPerNode = float64(wall.Nanoseconds()) / float64(rung.Nodes)
			p.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			p.HeapPeakMB = float64(m1.HeapAlloc) / (1 << 20)
		}
	}
	return p, nil
}

// measureIncremental times the interactive-loop shape the resynthesis
// fast path exists for: a fully scheduled design, a one-node edit fed
// from primary inputs, and a replayed re-synthesis. The setup pins
// per-unit instance limits learned from an unconstrained probe run and
// uses a single-cycle graph, the two conditions under which the replay
// carries end to end (see TestResynthesizeSpeedup10k for why).
func measureIncremental(ctx context.Context, nodes int) (IncrementalPoint, error) {
	p := IncrementalPoint{Name: fmt.Sprintf("inc%dk", nodes/1000), Nodes: nodes}
	fail := func(stage string, err error) (IncrementalPoint, error) {
		return p, fmt.Errorf("experiments: scale incremental %s: %s: %w", p.Name, stage, err)
	}
	g, err := gen.Generate(gen.Config{Nodes: nodes, Seed: 1})
	if err != nil {
		return fail("generate", err)
	}
	cs := g.CriticalPathCycles() + 16
	probe, err := core.SynthesizeCtx(ctx, g, core.Config{CS: cs})
	if err != nil {
		return fail("probe", err)
	}
	used := make(map[string]int)
	for _, a := range probe.Datapath.ALUs {
		used[a.Unit.Name]++
	}
	limits := make(map[string]int)
	for _, u := range library.NCRLike().Units() {
		limits[u.Name] = 0
		if n := used[u.Name]; n > 0 {
			limits[u.Name] = n + 2
		}
	}
	cfg := core.Config{CS: cs, Limits: limits}
	d, err := core.SynthesizeCtx(ctx, g, cfg)
	if err != nil {
		return fail("fresh", err)
	}
	kind, found := op.Add, false
	counts := make(map[op.Kind]int)
	for _, n := range g.Nodes() {
		counts[n.Op]++
	}
	for _, k := range []op.Kind{op.Add, op.Sub, op.And, op.Or, op.Xor} {
		if counts[k]%cs != 0 {
			kind, found = k, true
			break
		}
	}
	if !found {
		return fail("edit", fmt.Errorf("no op kind off the instance-floor boundary"))
	}
	ins := g.Inputs()
	e := core.Edit{AddOp: &core.AddOpEdit{Name: "probe", Op: kind, Args: []string{ins[0], ins[1]}}}
	runtime.GC()
	start := time.Now()
	inc, err := core.ResynthesizeCtx(ctx, d, e)
	if err != nil {
		return fail("resynthesize", err)
	}
	p.IncrementalMs = float64(time.Since(start).Microseconds()) / 1000

	runtime.GC()
	start = time.Now()
	fresh, err := core.SynthesizeCtx(ctx, inc.Graph, cfg)
	if err != nil {
		return fail("fresh edited", err)
	}
	p.FreshMs = float64(time.Since(start).Microseconds()) / 1000
	p.Speedup = p.FreshMs / p.IncrementalMs
	p.Identical = reflect.DeepEqual(inc.Schedule.Placements, fresh.Schedule.Placements) &&
		inc.Cost == fresh.Cost
	return p, nil
}

// LoadScaleBaseline reads a BENCH_scale.json snapshot written by
// `hlsbench -scale`.
func LoadScaleBaseline(path string) (*ScaleBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("experiments: scale baseline %s does not exist; run `hlsbench -scale -out %s` to regenerate it", path, path)
		}
		return nil, fmt.Errorf("experiments: scale baseline: %w", err)
	}
	var b ScaleBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("experiments: scale baseline %s is not valid JSON (%v); run `hlsbench -scale -out %s` to regenerate it", path, err, path)
	}
	if b.SchemaVersion != 1 {
		return nil, fmt.Errorf("experiments: scale baseline %s: unsupported schema_version %d (this build reads version 1); run `hlsbench -scale -out %s` to regenerate it", path, b.SchemaVersion, path)
	}
	return &b, nil
}

// Delta is one metric's baseline-vs-fresh pair, for the delta table
// `hlsbench -compare` prints before its pass/fail verdict.
type Delta struct {
	Name  string
	OldMs float64
	NewMs float64
}

// Factor returns the fresh/baseline slowdown (>1 = slower than the
// baseline), or 0 when the baseline measurement is missing or zero.
func (d Delta) Factor() float64 {
	if d.OldMs <= 0 {
		return 0
	}
	return d.NewMs / d.OldMs
}

// PerfDeltas pairs up every comparable measurement of two perf
// baselines, in the fresh snapshot's order. Metrics present on only one
// side are skipped, mirroring ComparePerf.
func PerfDeltas(baseline, fresh *PerfBaseline) []Delta {
	var ds []Delta
	oldTables := make(map[string]TableTiming, len(baseline.Tables))
	for _, t := range baseline.Tables {
		oldTables[t.Name] = t
	}
	for _, t := range fresh.Tables {
		if old, ok := oldTables[t.Name]; ok {
			ds = append(ds, Delta{Name: t.Name, OldMs: old.WallMs, NewMs: t.WallMs})
		}
	}
	ds = append(ds,
		Delta{Name: "sweep/sequential", OldMs: baseline.Sweep.SequentialMs, NewMs: fresh.Sweep.SequentialMs},
		Delta{Name: "sweep/parallel", OldMs: baseline.Sweep.ParallelMs, NewMs: fresh.Sweep.ParallelMs})
	return ds
}

// ScaleDeltas pairs up every comparable measurement of two scale
// baselines: each rung's wall time and each incremental point's fresh
// and incremental times.
func ScaleDeltas(baseline, fresh *ScaleBaseline) []Delta {
	var ds []Delta
	oldRungs := make(map[string]ScalePoint, len(baseline.Rungs))
	for _, r := range baseline.Rungs {
		oldRungs[r.Name] = r
	}
	for _, r := range fresh.Rungs {
		if old, ok := oldRungs[r.Name]; ok {
			ds = append(ds, Delta{Name: "rung/" + r.Name, OldMs: old.WallMs, NewMs: r.WallMs})
		}
	}
	oldInc := make(map[string]IncrementalPoint, len(baseline.Incremental))
	for _, p := range baseline.Incremental {
		oldInc[p.Name] = p
	}
	for _, p := range fresh.Incremental {
		old, ok := oldInc[p.Name]
		if !ok {
			continue
		}
		ds = append(ds,
			Delta{Name: p.Name + "/fresh", OldMs: old.FreshMs, NewMs: p.FreshMs},
			Delta{Name: p.Name + "/incremental", OldMs: old.IncrementalMs, NewMs: p.IncrementalMs})
	}
	return ds
}

// CompareScale checks a fresh scale measurement against a committed
// baseline with the same contract as ComparePerf: every wall time may be
// at most tolerance times its baseline value, rungs present on only one
// side are ignored (a capped ladder compares against the full one), and
// an incremental point that lost result identity is a regression of its
// own regardless of timing.
func CompareScale(baseline, fresh *ScaleBaseline, tolerance float64) []PerfRegression {
	var regs []PerfRegression
	for _, d := range ScaleDeltas(baseline, fresh) {
		if d.OldMs <= 0 {
			continue
		}
		if limit := d.OldMs * tolerance; d.NewMs > limit {
			regs = append(regs, PerfRegression{Name: d.Name, OldMs: d.OldMs, NewMs: d.NewMs, LimitMs: limit})
		}
	}
	oldInc := make(map[string]IncrementalPoint, len(baseline.Incremental))
	for _, p := range baseline.Incremental {
		oldInc[p.Name] = p
	}
	for _, p := range fresh.Incremental {
		if old, ok := oldInc[p.Name]; ok && old.Identical && !p.Identical {
			regs = append(regs, PerfRegression{Name: p.Name + "/identical_results"})
		}
	}
	return regs
}
