package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/report"
)

// PerfBaseline is the machine-readable performance snapshot `hlsbench
// -json` writes to BENCH_sweep.json: wall time per evaluation table plus
// the sequential-vs-parallel sweep comparison. Later changes regress
// against these numbers, so the schema is versioned and additions must
// keep existing fields.
type PerfBaseline struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`

	// Tables is the wall time of one regeneration of each evaluation
	// table, in hlsbench's print order.
	Tables []TableTiming `json:"tables"`

	// Sweep is the sequential-vs-parallel design-space sweep comparison
	// on the diffeq example over its full cs range.
	Sweep SweepTiming `json:"sweep"`
}

// TableTiming is one table's regeneration time.
type TableTiming struct {
	Name   string  `json:"name"`
	Rows   int     `json:"rows"`
	WallMs float64 `json:"wall_ms"`
}

// SweepTiming compares the sequential and parallel sweep paths on one
// graph and records the throughput the pool achieves.
type SweepTiming struct {
	Graph                string  `json:"graph"`
	CSLo                 int     `json:"cs_lo"`
	CSHi                 int     `json:"cs_hi"`
	Points               int     `json:"points"`
	SequentialMs         float64 `json:"sequential_ms"`
	ParallelMs           float64 `json:"parallel_ms"`
	Speedup              float64 `json:"speedup"`
	ParallelPointsPerSec float64 `json:"parallel_points_per_sec"`

	// Identical records that the parallel sweep returned byte-identical
	// points and Pareto marks — the determinism guarantee, asserted at
	// measurement time so a regression shows up in the baseline itself.
	Identical bool `json:"identical_results"`
}

// perfSweepRange returns the sweep the baseline measures: diffeq from
// its critical path to critical path + 12, matching BenchmarkSweep and
// BenchmarkParallelSweep in bench_test.go.
func perfSweepRange() (*benchmarks.Example, int, int) {
	ex := benchmarks.Diffeq()
	cp := ex.Graph.CriticalPathCycles()
	return ex, cp, cp + 12
}

// MeasurePerfCtx times every evaluation table regeneration and the
// sequential and parallel sweep paths (best of three runs each, to shave
// scheduler noise — a single run of a millisecond-scale table is
// noise-dominated and would flake the CI comparison), and returns the
// snapshot. Cancellation is observed by every table regeneration and
// every timed sweep repetition.
func MeasurePerfCtx(ctx context.Context) (*PerfBaseline, error) {
	p := &PerfBaseline{
		SchemaVersion: 1,
		GoVersion:     runtime.Version(),
	}
	tables := []struct {
		name string
		fn   func(context.Context) (*report.Table, error)
	}{
		{"table1", Table1Ctx},
		{"table2", Table2Ctx},
		{"compare", CompareCtx},
		{"phases", PhasesCtx},
		{"interconnect", InterconnectCtx},
		{"style", StyleOverheadCtx},
		{"runtime", RuntimeCtx},
		{"ablation-liapunov", AblationLiapunovCtx},
		{"ablation-weights", AblationWeightsCtx},
		{"ablation-rf", AblationRedundantFrameCtx},
	}
	for _, tb := range tables {
		rows, best := 0, 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			t, err := tb.fn(ctx)
			if err != nil {
				return nil, fmt.Errorf("experiments: perf baseline: %s: %w", tb.name, err)
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			if rep == 0 || ms < best {
				best = ms
			}
			rows = t.Len()
		}
		p.Tables = append(p.Tables, TableTiming{Name: tb.name, Rows: rows, WallMs: best})
	}

	ex, lo, hi := perfSweepRange()
	seqPoints, seqMs, err := timeSweep(ctx, ex, core.Config{Parallelism: 1}, lo, hi)
	if err != nil {
		return nil, err
	}
	parPoints, parMs, err := timeSweep(ctx, ex, core.Config{}, lo, hi)
	if err != nil {
		return nil, err
	}
	p.Sweep = SweepTiming{
		Graph:                ex.Graph.Name,
		CSLo:                 lo,
		CSHi:                 hi,
		Points:               len(parPoints),
		SequentialMs:         seqMs,
		ParallelMs:           parMs,
		Speedup:              seqMs / parMs,
		ParallelPointsPerSec: float64(len(parPoints)) / (parMs / 1000),
		Identical:            reflect.DeepEqual(seqPoints, parPoints),
	}
	// Recorded after the timed work, not at construction: the snapshot
	// must state the parallelism the measurements actually ran under,
	// even if something resized GOMAXPROCS mid-run.
	p.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return p, nil
}

// LoadPerfBaseline reads a BENCH_sweep.json snapshot written by
// `hlsbench -json`. Every failure names the path and says how to
// produce a good snapshot — this error is most often seen in CI logs by
// someone who didn't write the file, so it must carry its own context.
func LoadPerfBaseline(path string) (*PerfBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("experiments: perf baseline %s does not exist; run `hlsbench -json -out %s` to regenerate it", path, path)
		}
		return nil, fmt.Errorf("experiments: perf baseline: %w", err)
	}
	var p PerfBaseline
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("experiments: perf baseline %s is not valid JSON (%v); run `hlsbench -json -out %s` to regenerate it", path, err, path)
	}
	if p.SchemaVersion != 1 {
		return nil, fmt.Errorf("experiments: perf baseline %s: unsupported schema_version %d (this build reads version 1); run `hlsbench -json -out %s` to regenerate it", path, p.SchemaVersion, path)
	}
	return &p, nil
}

// PerfRegression is one measurement that exceeded the comparison budget.
type PerfRegression struct {
	Name    string  // table name, or "sweep/sequential", "sweep/parallel"
	OldMs   float64 // committed baseline
	NewMs   float64 // fresh measurement
	LimitMs float64 // OldMs × tolerance
}

func (r PerfRegression) String() string {
	if r.Name == "sweep/identical_results" {
		return "sweep/identical_results: parallel sweep no longer matches the sequential results"
	}
	if r.Name == "vet/identical_results" {
		return "vet/identical_results: parallel hlsvet output no longer matches the sequential run byte-for-byte"
	}
	if strings.HasSuffix(r.Name, "/identical_results") {
		return r.Name + ": incremental re-synthesis no longer matches the from-scratch result"
	}
	switch r.Name {
	case "serve/hit_rate":
		return fmt.Sprintf("serve/hit_rate: %.4f, baseline %.4f — replayed requests are re-synthesizing instead of hitting the cache", r.NewMs, r.OldMs)
	case "serve/byte_identical":
		return "serve/byte_identical: a cache hit returned different bytes than the miss that filled it"
	case "serve/sweep_batching":
		return fmt.Sprintf("serve/sweep_batching: %.0f batches for the burst (baseline %.0f) — concurrent sweeps no longer coalesce", r.NewMs, r.OldMs)
	}
	return fmt.Sprintf("%s: %.2f ms, baseline %.2f ms (limit %.2f ms)", r.Name, r.NewMs, r.OldMs, r.LimitMs)
}

// ComparePerf checks a fresh measurement against a committed baseline:
// every wall time may be at most tolerance times its baseline value.
// The deliberately loose factor (CI uses 3) absorbs shared-runner noise
// while still catching order-of-magnitude regressions — an accidental
// O(n²), a lost cache, a sweep gone sequential. Speedups never fail the
// check. Tables present on only one side are ignored (the set evolves);
// a fresh sweep that lost result determinism is reported as a
// regression of its own.
func ComparePerf(baseline, fresh *PerfBaseline, tolerance float64) []PerfRegression {
	var regs []PerfRegression
	check := func(name string, oldMs, newMs float64) {
		if oldMs <= 0 {
			return
		}
		if limit := oldMs * tolerance; newMs > limit {
			regs = append(regs, PerfRegression{Name: name, OldMs: oldMs, NewMs: newMs, LimitMs: limit})
		}
	}
	oldTables := make(map[string]TableTiming, len(baseline.Tables))
	for _, t := range baseline.Tables {
		oldTables[t.Name] = t
	}
	for _, t := range fresh.Tables {
		if old, ok := oldTables[t.Name]; ok {
			check(t.Name, old.WallMs, t.WallMs)
		}
	}
	check("sweep/sequential", baseline.Sweep.SequentialMs, fresh.Sweep.SequentialMs)
	check("sweep/parallel", baseline.Sweep.ParallelMs, fresh.Sweep.ParallelMs)
	if baseline.Sweep.Identical && !fresh.Sweep.Identical {
		regs = append(regs, PerfRegression{Name: "sweep/identical_results"})
	}
	return regs
}

func timeSweep(ctx context.Context, ex *benchmarks.Example, cfg core.Config, lo, hi int) ([]core.SweepPoint, float64, error) {
	var points []core.SweepPoint
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		p, err := core.SweepCtx(ctx, ex.Graph, cfg, lo, hi)
		if err != nil {
			return nil, 0, fmt.Errorf("experiments: perf baseline sweep: %w", err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if rep == 0 || ms < best {
			best = ms
		}
		points = p
	}
	return points, best, nil
}
