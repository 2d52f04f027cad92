package harness

import (
	"io"
	"strings"
	"testing"
)

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Experiments()) {
		t.Fatal("IDs out of sync with Experiments")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("fig99", io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestEveryExperimentProducesATable checks each experiment's table on the
// uncached sweep it shares with TestMemoizedTablesByteIdentical
// (baselineTables).
func TestEveryExperimentProducesATable(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep is slow")
	}
	tables, errs := baselineTables(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if err := errs[id]; err != nil {
				t.Fatal(err)
			}
			out := tables[id]
			if !strings.Contains(out, "==") || len(out) < 100 {
				t.Fatalf("suspiciously small output:\n%s", out)
			}
		})
	}
}
