// Command hlsbench regenerates the paper's evaluation: Tables 1 and 2,
// the comparison and style-overhead studies, CPU times, the textual
// Figures 1 and 2, and the ablation tables. With -json it instead
// measures the machine-readable performance baseline (wall time per
// table, sequential vs parallel sweep throughput) and writes it to
// BENCH_sweep.json so later changes have a perf trajectory to regress
// against.
//
// Usage:
//
//	hlsbench                  # everything
//	hlsbench -table 1         # Table 1 only
//	hlsbench -table 2         # Table 2 only
//	hlsbench -table compare   # baseline comparison
//	hlsbench -table style     # style-2 overhead
//	hlsbench -table runtime   # CPU times
//	hlsbench -table ablation  # ablation studies
//	hlsbench -fig 1|2         # figures
//	hlsbench -json            # write perf baseline to BENCH_sweep.json
//	hlsbench -json -out p.json
//	hlsbench -json -out fresh.json -compare BENCH_sweep.json   # CI guard:
//	       exit non-zero if any wall time exceeds 3x the committed baseline
//
// With -scale it instead runs the large-graph ladder (generated DFGs
// from 1k to 100k nodes plus the incremental re-synthesis points),
// prints the per-rung wall time, ns/node, and allocation columns, and
// writes the snapshot to BENCH_scale.json:
//
//	hlsbench -scale                       # full ladder, 100k included
//	hlsbench -scale -maxnodes 10000       # committed-baseline subset
//	hlsbench -scale -out fresh.json -compare BENCH_scale.json
//
// With -serve it instead load-tests the hlsd daemon in-process: warm
// every distinct benchmark request, then replay them from a thousand
// concurrent clients, and write the hit-path latency percentiles, hit
// rate, and byte-identity verdict to BENCH_serve.json:
//
//	hlsbench -serve
//	hlsbench -serve -out fresh.json -compare BENCH_serve.json
//
// With -vet it instead times the full hlsvet analyzer suite over the
// module — sequential versus parallel, asserting byte-identical output
// — and writes the snapshot to BENCH_vet.json:
//
//	hlsbench -vet
//	hlsbench -vet -out fresh.json -compare BENCH_vet.json
//
// In every mode -compare prints the full per-metric delta table
// (baseline, fresh, slowdown factor) before the verdict, so a passing
// run still shows where the time is drifting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() { cli.Main("hlsbench", run) }

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hlsbench", flag.ContinueOnError)
	table := fs.String("table", "", "which table to print (1, 2, compare, style, runtime, ablation); empty = all")
	fig := fs.Int("fig", 0, "which figure to print (1 or 2); 0 = per -table selection")
	jsonOut := fs.Bool("json", false, "measure the perf baseline and write it as JSON to -out")
	scale := fs.Bool("scale", false, "measure the large-graph scale ladder and write it as JSON to -out")
	serveBench := fs.Bool("serve", false, "load-test the hlsd daemon in-process and write the snapshot as JSON to -out")
	vetBench := fs.Bool("vet", false, "time the hlsvet analyzer suite over the module and write the snapshot as JSON to -out")
	maxNodes := fs.Int("maxnodes", 0, "with -scale: skip ladder rungs larger than this many nodes (0 = full ladder)")
	outPath := fs.String("out", "", "output path for -json, -scale, or -serve (default BENCH_sweep.json, BENCH_scale.json, or BENCH_serve.json)")
	compare := fs.String("compare", "", "with -json, -scale, or -serve: print the per-metric delta table against this committed baseline and fail if any fresh wall time exceeds it by more than -tolerance")
	tolerance := fs.Float64("tolerance", 3, "with -compare: allowed slowdown factor per measurement")
	timeout := cli.Timeout(fs)
	prof := cli.Profile(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	modes := 0
	for _, on := range []bool{*jsonOut, *scale, *serveBench, *vetBench} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-json, -scale, -serve, and -vet are mutually exclusive")
	}
	if *vetBench {
		path := *outPath
		if path == "" {
			path = "BENCH_vet.json"
		}
		return writeVetBaseline(ctx, out, path, *compare, *tolerance)
	}
	if *serveBench {
		path := *outPath
		if path == "" {
			path = "BENCH_serve.json"
		}
		return writeServeBaseline(ctx, out, path, *compare, *tolerance)
	}
	if *scale {
		path := *outPath
		if path == "" {
			path = "BENCH_scale.json"
		}
		return writeScaleBaseline(ctx, out, path, *compare, *tolerance, *maxNodes)
	}
	if *jsonOut {
		path := *outPath
		if path == "" {
			path = "BENCH_sweep.json"
		}
		return writeBaseline(ctx, out, path, *compare, *tolerance)
	}
	if *compare != "" {
		return fmt.Errorf("-compare requires -json, -scale, -serve, or -vet")
	}
	if *fig != 0 {
		return printFigure(out, *fig)
	}
	sections := map[string][]func(context.Context) (*report.Table, error){
		"1":            {experiments.Table1Ctx},
		"2":            {experiments.Table2Ctx},
		"compare":      {experiments.CompareCtx},
		"phases":       {experiments.PhasesCtx},
		"interconnect": {experiments.InterconnectCtx},
		"style":        {experiments.StyleOverheadCtx},
		"runtime":      {experiments.RuntimeCtx},
		"ablation":     {experiments.AblationLiapunovCtx, experiments.AblationWeightsCtx, experiments.AblationRedundantFrameCtx},
	}
	order := []string{"1", "2", "compare", "phases", "interconnect", "style", "runtime", "ablation"}
	if *table != "" {
		fns, ok := sections[*table]
		if !ok {
			return fmt.Errorf("unknown table %q", *table)
		}
		for _, fn := range fns {
			if err := printTable(ctx, out, fn); err != nil {
				return err
			}
		}
		return nil
	}
	for _, key := range order {
		for _, fn := range sections[key] {
			if err := printTable(ctx, out, fn); err != nil {
				return err
			}
		}
	}
	if err := printFigure(out, 1); err != nil {
		return err
	}
	return printFigure(out, 2)
}

func writeBaseline(ctx context.Context, out io.Writer, path, compare string, tolerance float64) error {
	p, err := experiments.MeasurePerfCtx(ctx)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: sweep %s cs %d..%d, %.1f ms sequential, %.1f ms parallel (%.2fx on %d procs, identical=%v)\n",
		path, p.Sweep.Graph, p.Sweep.CSLo, p.Sweep.CSHi,
		p.Sweep.SequentialMs, p.Sweep.ParallelMs, p.Sweep.Speedup,
		p.GOMAXPROCS, p.Sweep.Identical)
	if compare == "" {
		return nil
	}
	base, err := experiments.LoadPerfBaseline(compare)
	if err != nil {
		return err
	}
	printDeltas(out, compare, experiments.PerfDeltas(base, p))
	return verdict(out, experiments.ComparePerf(base, p, tolerance), tolerance, compare)
}

func writeScaleBaseline(ctx context.Context, out io.Writer, path, compare string, tolerance float64, maxNodes int) error {
	b, err := experiments.MeasureScaleCtx(ctx, maxNodes)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "scale ladder (%s, %d procs):\n", b.GoVersion, b.GOMAXPROCS)
	fmt.Fprintf(out, "  %-10s %8s %5s %10s %9s %9s %8s\n",
		"rung", "nodes", "cs", "wall ms", "ns/node", "alloc MB", "heap MB")
	for _, r := range b.Rungs {
		fmt.Fprintf(out, "  %-10s %8d %5d %10.1f %9.0f %9.1f %8.1f\n",
			r.Name, r.Nodes, r.CS, r.WallMs, r.NsPerNode, r.AllocMB, r.HeapPeakMB)
	}
	if len(b.Incremental) > 0 {
		fmt.Fprintln(out, "incremental re-synthesis (one-node edit):")
		fmt.Fprintf(out, "  %-10s %8s %10s %10s %8s %10s\n",
			"point", "nodes", "fresh ms", "incr ms", "speedup", "identical")
		for _, p := range b.Incremental {
			fmt.Fprintf(out, "  %-10s %8d %10.1f %10.1f %7.1fx %10v\n",
				p.Name, p.Nodes, p.FreshMs, p.IncrementalMs, p.Speedup, p.Identical)
		}
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	if compare == "" {
		return nil
	}
	base, err := experiments.LoadScaleBaseline(compare)
	if err != nil {
		return err
	}
	printDeltas(out, compare, experiments.ScaleDeltas(base, b))
	return verdict(out, experiments.CompareScale(base, b, tolerance), tolerance, compare)
}

func writeVetBaseline(ctx context.Context, out io.Writer, path, compare string, tolerance float64) error {
	b, err := experiments.MeasureVetCtx(ctx, ".")
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d analyzers, %d findings, %.1f ms sequential, %.1f ms parallel (%.2fx on %d procs, identical=%v)\n",
		path, b.Analyzers, b.Findings, b.SequentialMs, b.ParallelMs, b.Speedup, b.GOMAXPROCS, b.Identical)
	if compare == "" {
		return nil
	}
	base, err := experiments.LoadVetBaseline(compare)
	if err != nil {
		return err
	}
	printDeltas(out, compare, experiments.VetDeltas(base, b))
	return verdict(out, experiments.CompareVet(base, b, tolerance), tolerance, compare)
}

func writeServeBaseline(ctx context.Context, out io.Writer, path, compare string, tolerance float64) error {
	b, err := experiments.MeasureServeCtx(ctx)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d clients x %d requests over %d designs\n",
		path, b.Clients, b.Requests/b.Clients, b.Designs)
	fmt.Fprintf(out, "  warm %.1f ms, replay %.1f ms (%.0f req/s), p50 %.2f ms, p99 %.2f ms\n",
		b.WarmMs, b.ReplayMs, b.ThroughputRPS, b.P50Ms, b.P99Ms)
	fmt.Fprintf(out, "  hit rate %.4f, byte-identical %v, sweep burst %d reqs in %d batches\n",
		b.HitRate, b.ByteIdentical, b.SweepBatchedReqs, b.SweepBatches)
	if compare == "" {
		return nil
	}
	base, err := experiments.LoadServeBaseline(compare)
	if err != nil {
		return err
	}
	printDeltas(out, compare, experiments.ServeDeltas(base, b))
	return verdict(out, experiments.CompareServe(base, b, tolerance), tolerance, compare)
}

// printDeltas renders the full per-metric comparison, pass or fail —
// a passing run should still show where the time is drifting.
func printDeltas(out io.Writer, compare string, deltas []experiments.Delta) {
	fmt.Fprintf(out, "delta vs %s:\n", compare)
	fmt.Fprintf(out, "  %-24s %12s %12s %8s\n", "metric", "baseline ms", "fresh ms", "factor")
	for _, d := range deltas {
		if d.OldMs <= 0 {
			fmt.Fprintf(out, "  %-24s %12s %12.2f %8s\n", d.Name, "-", d.NewMs, "-")
			continue
		}
		fmt.Fprintf(out, "  %-24s %12.2f %12.2f %7.2fx\n", d.Name, d.OldMs, d.NewMs, d.Factor())
	}
}

func verdict(out io.Writer, regs []experiments.PerfRegression, tolerance float64, compare string) error {
	if len(regs) == 0 {
		fmt.Fprintf(out, "within %.0fx of %s on every measurement\n", tolerance, compare)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(out, "regression:", r)
	}
	return fmt.Errorf("%d measurement(s) regressed past %.0fx of %s", len(regs), tolerance, compare)
}

func printTable(ctx context.Context, out io.Writer, fn func(context.Context) (*report.Table, error)) error {
	t, err := fn(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, t.String())
	return nil
}

func printFigure(out io.Writer, n int) error {
	switch n {
	case 1:
		fmt.Fprintln(out, experiments.Figure1())
	case 2:
		f, err := experiments.Figure2()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, f)
	default:
		return fmt.Errorf("unknown figure %d", n)
	}
	return nil
}
