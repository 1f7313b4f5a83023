package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/behav"
)

// TestDesignCorpus runs the whole flow over the .hls corpus under
// testdata/designs: parse, schedule at the critical path and with +2
// slack, synthesize both styles where the design has no folded loop,
// self-check everything, and render the report. Every corpus file must
// pass; the corpus covers conditionals, loops, multicycle ops, shifts
// and logic — the language surface users actually write.
func TestDesignCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "designs", "*.hls"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 8 {
		t.Fatalf("corpus has %d designs, want >= 8", len(files))
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			g, _, err := behav.BuildSource(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			cp := g.CriticalPathCycles()
			hasLoop := false
			for _, n := range g.Nodes() {
				if n.IsLoop() {
					hasLoop = true
				}
			}
			for _, cs := range []int{cp, cp + 2} {
				d, _, err := ScheduleSourceCtx(context.Background(), src, Config{CS: cs})
				if err != nil {
					t.Fatalf("schedule cs=%d: %v", cs, err)
				}
				if err := d.SelfCheck(3); err != nil {
					t.Fatalf("schedule cs=%d: %v", cs, err)
				}
				// The optimized variant must also schedule and verify
				// (cs may tighten as the graph shrinks; keep cs+2 slack).
				if od, _, err := ScheduleSourceCtx(context.Background(), src, Config{CS: cs + 2, Optimize: true}); err != nil {
					t.Fatalf("optimized schedule: %v", err)
				} else if err := od.SelfCheck(2); err != nil {
					t.Fatalf("optimized schedule: %v", err)
				}
				if hasLoop {
					continue // MFSA synthesizes flattened bodies only
				}
				for _, style := range []int{1, 2} {
					ds, err := SynthesizeSourceCtx(context.Background(), src, Config{CS: cs, Style: style})
					if err != nil {
						t.Fatalf("synth cs=%d style=%d: %v", cs, style, err)
					}
					if err := ds.SelfCheck(3); err != nil {
						t.Fatalf("synth cs=%d style=%d: %v", cs, style, err)
					}
					rep, err := ds.Report()
					if err != nil {
						t.Fatalf("report: %v", err)
					}
					for _, want := range []string{"synthesis report", "utilization", "interconnect", "bus alternative"} {
						if !strings.Contains(rep, want) {
							t.Errorf("report missing %q", want)
						}
					}
				}
			}
		})
	}
}

func TestReportScheduleOnly(t *testing.T) {
	d, _, err := ScheduleSourceCtx(context.Background(), `
design tiny
input a
x = a + a
`, Config{CS: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "schedule-only design") {
		t.Errorf("report:\n%s", rep)
	}
}
