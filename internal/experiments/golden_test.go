package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/report"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden experiment outputs")

// goldenCases are the deterministic experiment outputs pinned against
// regressions; `go test ./internal/experiments -update-golden` refreshes
// them after an intentional algorithm change.
func goldenCases(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{"figure1.golden": Figure1()}
	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	out["figure2.golden"] = f2
	tables := map[string]func(context.Context) (*report.Table, error){
		"table1.golden":       Table1Ctx,
		"table2.golden":       Table2Ctx,
		"compare.golden":      CompareCtx,
		"phases.golden":       PhasesCtx,
		"style.golden":        StyleOverheadCtx,
		"interconnect.golden": InterconnectCtx,
	}
	for name, fn := range tables {
		tbl, err := fn(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tbl.String()
	}
	return out
}

func TestGoldenOutputs(t *testing.T) {
	for name, got := range goldenCases(t) {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", name, err)
		}
		if string(want) != got {
			t.Errorf("%s changed; rerun with -update-golden if intentional.\n--- got ---\n%s\n--- want ---\n%s",
				name, got, want)
		}
	}
}
