// Command perfbench is the repository's outside-in benchmark: three
// seeded workloads run against the module's packages, each in its own
// process, with end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run. See README.md in this directory.
//
//	bash perfbench/run.sh --workload synth-large --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A run whose outputs are wrong prints correct=false and exits 1.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workload is one set of inputs built from a seed.
type workload interface {
	// run measures the work the workload does in a nominal run of length
	// d (tr is nil when untraced). It always completes one full reference
	// pass over the workload's distinct inputs first, which is where
	// exact counts come from; with d == 0 it runs only that pass.
	run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	// check verifies the outputs after the timed loop, untimed.
	check(ctx context.Context) (attempted, failed int, notes []string)
	// exact returns the counts and area of the reference pass. They are
	// deterministic functions of the seed.
	exact() map[string]float64
}

// phase is what one timed loop measured.
type phase struct {
	Lat      []float64 // per-operation wall time, ms
	CPU      []float64 // per-operation CPU time of the process, ms
	Ops      int
	Failed   int
	NodeRate float64            // graph nodes per CPU second
	Layer    map[string]float64 // per-layer metrics the workload reads itself
	Notes    []string

	nodes int64   // graph nodes of the completed operations
	cpuMs float64 // CPU time spent inside operations
}

// done records one completed closed-loop operation.
func (p *phase) done(s sample, nodes int) {
	p.Lat = append(p.Lat, s.wallMs)
	p.CPU = append(p.CPU, s.cpuMs)
	p.nodes += int64(nodes)
	p.cpuMs += s.cpuMs
}

// closeLoop sets the node rate over the CPU time spent inside the
// operations, so untimed work between them does not count.
func (p *phase) closeLoop() {
	p.NodeRate = 1000 * float64(p.nodes) / p.cpuMs
}

type builder func(ctx context.Context, seed int64) (workload, error)

var workloads = map[string]builder{
	"synth-large":  newSynthLarge,
	"edit-session": newEditSession,
	"verify-mid":   newVerifyMid,
}

// setupReps is how often set-up runs; setup_s is the median.
const setupReps = 5

// heldoutOffset derives the held-out seed printed beside the main one.
const heldoutOffset = 1_000_003

// outDir, relative to the repository root the benchmark runs from,
// holds the exact-count records and the span dumps.
const outDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload: synth-large, edit-session or verify-mid")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "run length: sets the amount of work, see README.md")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	countsOnly := flag.Bool("counts-only", false, "run the reference pass only and print its exact counts as JSON")
	flag.Parse()
	build, ok := workloads[*name]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		return 2
	}
	ctx := context.Background()
	if *countsOnly {
		return countsOnlyMain(ctx, build, *seed)
	}
	b := &bench{name: *name, seed: *seed, heldoutSeed: *seed + heldoutOffset, total: time.Duration(*seconds) * time.Second}
	var res *result
	var err error
	if *traceFlag == 1 {
		res, err = b.traced(ctx, build)
	} else {
		res, err = b.untraced(ctx, build)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// countsOnlyMain runs the reference pass alone and prints its exact
// counts; the traced run starts it as a child at GOMAXPROCS=1.
func countsOnlyMain(ctx context.Context, build builder, seed int64) int {
	w, err := build(ctx, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := w.run(ctx, 0, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w.check(ctx) // verify-mid reads its counts here; failures surface in the parent's own check
	if err := json.NewEncoder(os.Stdout).Encode(w.exact()); err != nil {
		return 1
	}
	return 0
}

type bench struct {
	name              string
	seed, heldoutSeed int64
	total             time.Duration
}

// setup builds the workload setupReps times and keeps the last one. Its
// time is the median CPU time of the builds, in seconds.
func (b *bench) setup(ctx context.Context, build builder, seed int64) (workload, float64, error) {
	var w workload
	var times []float64
	for i := 0; i < setupReps; i++ {
		w = nil
		runtime.GC()
		sw := startWatch()
		var err error
		if w, err = build(ctx, seed); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", b.name, err)
		}
		times = append(times, sw.stop().cpuMs/1000)
	}
	return w, medianOf(times), nil
}

// endToEnd turns a phase into the end-to-end metrics. The operation
// times are CPU times; the wall-time distribution comes back beside
// them to be printed.
func endToEnd(p *phase, setupS, rssMB, area float64, attempted, failed int) (map[string]metric, dist, dist) {
	c := summarize(p.CPU)
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"cpu_ms_p50":      {c.P50, "ms"},
		"cpu_ms_tail":     {c.Tail, "ms"},
		"nodes_per_cpu_s": {p.NodeRate, "1/s"},
		"ok_share":        {1 - float64(failed)/float64(max(1, attempted)), "ratio"},
		"peak_rss_mb":     {rssMB, "MB"},
		"area_um2":        {area, "um2"},
	}, c, summarize(p.Lat)
}

// untraced is the end-to-end run: the main seed's work, then the checks.
func (b *bench) untraced(ctx context.Context, build builder) (*result, error) {
	w, setupS, err := b.setup(ctx, build, b.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	p, err := w.run(ctx, b.total, nil)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	attempted, failed, notes := b.checkAll(ctx, w, p)
	ex := w.exact()
	m, c, d := endToEnd(p, setupS, rss, ex["area_um2"], attempted, failed)

	fmt.Printf("perfbench %s: seed %d, GOMAXPROCS %d, run length %s\n", b.name, b.seed, runtime.GOMAXPROCS(0), b.total)
	fmt.Printf("  op CPU time: %s ms\n", c)
	fmt.Printf("  op wall time: %s ms\n", d)
	printMetrics(m)
	printNotes(append(p.Notes, notes...))
	printExact(ex)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// heldout runs a fifth of the work on the held-out seed and returns its
// end-to-end metrics, printed beside the main seed's.
func (b *bench) heldout(ctx context.Context, build builder) (map[string]metric, *phase, error) {
	sw := startWatch()
	w, err := build(ctx, b.heldoutSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("held-out set-up: %w", err)
	}
	setupS := sw.stop().cpuMs / 1000
	runtime.GC()
	p, err := w.run(ctx, b.total/5, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("held-out run: %w", err)
	}
	m, c, _ := endToEnd(p, setupS, peakRSSMB(), w.exact()["area_um2"], p.Ops, p.Failed)
	fmt.Printf("  held-out seed %d, run length %s: op CPU time %s ms\n", b.heldoutSeed, b.total/5, c)
	return m, p, nil
}

// checkAll runs the workload's output checks and the exact-count record
// comparison; timed-loop failures count too.
func (b *bench) checkAll(ctx context.Context, w workload, p *phase) (attempted, failed int, notes []string) {
	ca, cf, notes := w.check(ctx)
	attempted, failed = p.Ops+ca, p.Failed+cf
	if err := b.compareRecord(w.exact()); err != nil {
		failed++
		notes = append(notes, "FAIL "+err.Error())
	}
	attempted++
	return attempted, failed, notes
}

// traced is the per-layer run: an untraced phase and a traced phase on
// the same inputs, printed side by side, then the counts checked again
// at GOMAXPROCS=1 in a child process.
func (b *bench) traced(ctx context.Context, build builder) (*result, error) {
	w, setupS, err := b.setup(ctx, build, b.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	up, err := w.run(ctx, b.total/2, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer()
	tp, err := w.run(ctx, b.total/2, tr)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()

	attempted, failed, notes := b.checkAll(ctx, w, tp)
	ex := w.exact()
	if err := b.compareSingleProc(ctx, ex); err != nil {
		failed++
		notes = append(notes, "FAIL "+err.Error())
	}
	attempted++

	spans := tr.snapshot()
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", b.name, b.seed))); err != nil {
		notes = append(notes, "span dump not written: "+err.Error())
	}
	stats, total := layerReport(spans)
	um, uc, ud := endToEnd(up, setupS, rss, ex["area_um2"], up.Ops, up.Failed)
	tm, tc, td := endToEnd(tp, setupS, rss, ex["area_um2"], tp.Ops, tp.Failed)

	fmt.Printf("perfbench %s (traced): seed %d, GOMAXPROCS %d, run length %s untraced then %s traced\n",
		b.name, b.seed, runtime.GOMAXPROCS(0), b.total/2, b.total/2)
	fmt.Printf("  op CPU time untraced: %s ms; traced: %s ms\n", uc, tc)
	fmt.Printf("  op wall time untraced: %s ms; traced: %s ms\n", ud, td)
	hm, hp, err := b.heldout(ctx, build)
	if err != nil {
		return nil, err
	}
	attempted, failed = attempted+hp.Ops, failed+hp.Failed
	fmt.Println("  end-to-end, untraced | traced (difference = tracing overhead) | held-out seed, untraced:")
	printMetrics(um, tm, hm)
	printLayers(stats, total)
	printNotes(append(append(tp.Notes, hp.Notes...), notes...))

	lm := perLayer(stats, tr, tp, ex)
	printExact(ex)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: lm}, nil
}

// perLayerSpec maps each per-layer metric to where it is read from.
type perLayerSpec struct {
	name, unit string
	span       string // p50 duration of spans with this name
	val        string // p50 of tracer observations with this name
	exact      bool   // from the reference pass counts
}

var perLayerSpecs = []perLayerSpec{
	{name: "sched.frames_ms", unit: "ms", span: "sched.frames"},
	{name: "mfsa.synth_ms", unit: "ms", span: "mfsa.SynthesizeCtx"},
	{name: "mfsa.alloc_mb", unit: "MB", val: "mfsa.alloc_mb"},
	{name: "mfsa.trace_ms", unit: "ms", val: "mfsa.trace_ms"},
	{name: "mfsa.candidates_scored", unit: "count", exact: true},
	{name: "mfsa.growths", unit: "count", exact: true},
	{name: "rtl.muxopt_ms", unit: "ms", span: "rtl.ReoptimizeMuxes"},
	{name: "rtl.alus", unit: "count", exact: true},
	{name: "rtl.registers", unit: "count", exact: true},
	{name: "rtl.mux_inputs", unit: "count", exact: true},
	{name: "ctrl.build_ms", unit: "ms", span: "ctrl.Build"},
	{name: "emit.verilog_ms", unit: "ms", span: "emit.Verilog"},
	{name: "emit.netlist_kb", unit: "KiB", exact: true},
	{name: "core.resynth_ms", unit: "ms", span: "core.ResynthesizeCtx"},
	{name: "core.fresh_ms", unit: "ms", span: "core.SynthesizeCtx"},
	{name: "core.edit_prefix_share", unit: "ratio", exact: true},
	{name: "lint.alloc_ms", unit: "ms", span: "lint.RunCtx:alloc"},
	{name: "lint.ctrl_ms", unit: "ms", span: "lint.RunCtx:ctrl"},
	{name: "lint.dfg_ms", unit: "ms", span: "lint.RunCtx:dfg"},
	{name: "lint.equiv_ms", unit: "ms", span: "lint.RunCtx:equiv"},
	{name: "lint.frames_ms", unit: "ms", span: "lint.RunCtx:frames"},
	{name: "lint.liapunov_ms", unit: "ms", span: "lint.RunCtx:liapunov"},
	{name: "lint.netlist_ms", unit: "ms", span: "lint.RunCtx:netlist"},
	{name: "lint.certify_ms", unit: "ms", span: "lint.Certify"},
	{name: "lint.outputs_proved", unit: "count", exact: true},
	{name: "lint.diagnostics", unit: "count", exact: true},
	{name: "sim.crosscheck_ms", unit: "ms", span: "sim.CrossCheckSeedsCtx"},
	{name: "behav.compile_ms", unit: "ms", span: "behav.Compile"},
	{name: "opt.pipeline_ms", unit: "ms", span: "opt.Pipeline"},
	{name: "dfgio.decode_ms", unit: "ms", span: "dfgio.DecodeGraph"},
	{name: "canon.fingerprint_ms", unit: "ms", span: "canon.Fingerprint"},
	{name: "canon.canonical_ms", unit: "ms", span: "canon.Canonical"},
	{name: "pool.sweep_ms", unit: "ms", span: "hls.SweepGraphsCtx"},
	{name: "serve.hit_ms_p50", unit: "ms"},
	{name: "serve.hit_ms_tail", unit: "ms"},
	{name: "serve.miss_ms_p50", unit: "ms"},
	{name: "serve.miss_ms_tail", unit: "ms"},
	{name: "serve.hit_rate", unit: "ratio"},
	{name: "serve.evictions", unit: "count"},
	{name: "runtime.gc_cpu_s", unit: "s"},
}

// perLayer reads every per-layer metric; a layer the workload never
// calls reads 0.
func perLayer(stats []layerStat, tr *tracer, p *phase, ex map[string]float64) map[string]metric {
	p50 := make(map[string]float64, len(stats))
	for _, s := range stats {
		p50[s.Name] = s.P50ms
	}
	out := make(map[string]metric, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		var v float64
		switch {
		case s.span != "":
			v = p50[s.span]
		case s.val != "":
			v = medianOf(tr.vals[s.val])
		case s.exact:
			v = ex[s.name]
		default:
			v = p.Layer[s.name]
		}
		out[s.name] = metric{finite(v), s.unit}
	}
	out["runtime.gc_cpu_s"] = metric{tr.gcCPU, "s"}
	return out
}

// compareRecord checks this run's exact counts against the ones an
// earlier run of the same program, workload and seed recorded in the
// checkout, then records any new ones. The record is keyed by a hash of
// the benchmark's executable, which links in the module's code, so a
// change to the program starts a record of its own.
func (b *bench) compareRecord(ex map[string]float64) error {
	id, err := executableHash()
	if err != nil {
		return err
	}
	dir := filepath.Join(outDir, "records")
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", b.name, b.seed, id))
	prev := map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("exact-count record %s: %w", path, err)
		}
	}
	if err := diffExact("an earlier run", prev, ex); err != nil {
		return err
	}
	for k, v := range ex {
		prev[k] = v
	}
	data, err := json.Marshal(prev)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// executableHash is a short hex hash of the running executable's bytes.
func executableHash() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(self)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// compareSingleProc re-runs the reference pass in a child process at
// GOMAXPROCS=1 and compares its exact counts with this run's.
func (b *bench) compareSingleProc(ctx context.Context, ex map[string]float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "--workload", b.name, "--seed", strconv.FormatInt(b.seed, 10), "--counts-only")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("GOMAXPROCS=1 reference pass: %w", err)
	}
	var one map[string]float64
	if err := json.Unmarshal(data, &one); err != nil {
		return fmt.Errorf("GOMAXPROCS=1 reference pass output: %w", err)
	}
	return diffExact("GOMAXPROCS=1", one, ex)
}

// diffExact reports the first key both maps hold with different values.
func diffExact(what string, want, got map[string]float64) error {
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; ok && w != got[k] {
			return fmt.Errorf("exact count %s = %v, but %v in %s", k, got[k], w, what)
		}
	}
	return nil
}

// sample is what one operation cost: wall time and the CPU time of the
// whole process (every thread, the collector's included), in ms.
type sample struct{ wallMs, cpuMs float64 }

// stopwatch reads the wall clock and the process's CPU time together.
// The CPU time leaves out time the host ran other work on the cores,
// which on a shared host moves the wall time from run to run.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) stop() sample {
	return sample{ms(time.Since(s.wall)), ms(processCPU() - s.cpu)}
}

// processCPU is the user plus system CPU time of the process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printMetrics prints the metrics of ms[0] with the same ones of the
// other maps beside them.
func printMetrics(ms ...map[string]metric) {
	for _, k := range sortedKeys(ms[0]) {
		fmt.Printf("  %-16s", k)
		for i, m := range ms {
			if i > 0 {
				fmt.Print(" |")
			}
			fmt.Printf(" %14.4f", m[k].Value)
		}
		fmt.Printf(" %s\n", ms[0][k].Unit)
	}
}

func printLayers(stats []layerStat, total time.Duration) {
	fmt.Printf("  spans (self-time share of %.1f ms end-to-end work; aside = re-run only to time it):\n", ms(total))
	shares := make(map[string]time.Duration)
	for _, s := range stats {
		tag := ""
		if s.Aside {
			tag = " aside"
		} else {
			shares[layerOf(s.Name)] += s.Self
		}
		fmt.Printf("    %-28s calls %5d  p50 %10.3f ms  self %6.2f%%%s\n", s.Name, s.Calls, s.P50ms,
			100*float64(s.Self)/math.Max(1, float64(total)), tag)
	}
	fmt.Print("  self-time share by layer:")
	for _, l := range sortedKeys(shares) {
		fmt.Printf(" %s %.1f%%", l, 100*float64(shares[l])/math.Max(1, float64(total)))
	}
	fmt.Println()
}

func printNotes(notes []string) {
	for _, n := range notes {
		fmt.Println("  " + n)
	}
}

func printExact(ex map[string]float64) {
	fmt.Print("  exact counts:")
	for _, k := range sortedKeys(ex) {
		fmt.Printf(" %s=%v", k, ex[k])
	}
	fmt.Println()
}
