package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"pifsrec/internal/memo"
)

// updateGolden rewrites testdata/golden_tables.json from the current code:
//
//	go test ./internal/harness -run TestMemoizedTablesByteIdentical -update
var updateGolden = flag.Bool("update", false, "rewrite the golden table digests in testdata")

const goldenPath = "testdata/golden_tables.json"

// goldenFile pins every experiment's rendered table by SHA-256, together
// with the memo.CodeVersion the digests were produced under. Run-vs-run
// checks cannot see a shift that moves every run alike; these digests can.
type goldenFile struct {
	CodeVersion string            `json:"code_version"`
	Tables      map[string]string `json:"tables"`
}

// baseline is the one uncached render of every experiment that the sweep
// tests share, so the tier-1 suite renders the full set once for them.
var baseline struct {
	once   sync.Once
	tables map[string]string
	errs   map[string]error
}

// baselineTables renders every experiment with no result store installed
// (on first use) and returns the tables and per-experiment errors.
func baselineTables(t *testing.T) (map[string]string, map[string]error) {
	t.Helper()
	baseline.once.Do(func() {
		prev := SetStore(nil)
		defer SetStore(prev)
		baseline.tables = make(map[string]string, len(IDs()))
		baseline.errs = make(map[string]error)
		for _, id := range IDs() {
			var buf bytes.Buffer
			if err := Run(id, &buf); err != nil {
				baseline.errs[id] = err
			}
			baseline.tables[id] = buf.String()
		}
	})
	return baseline.tables, baseline.errs
}

func tableDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkGolden compares every table's digest with the committed golden file,
// or rewrites the file under -update. A mismatch says whether the golden
// predates a CodeVersion bump (regenerate) or the tables moved without one
// (bump CodeVersion first: cached results from the old code would alias).
func checkGolden(t *testing.T, tables map[string]string) {
	t.Helper()
	if *updateGolden {
		g := goldenFile{CodeVersion: memo.CodeVersion, Tables: make(map[string]string, len(tables))}
		for id, out := range tables {
			g.Tables[id] = tableDigest(out)
		}
		raw, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d table digests to %s", len(g.Tables), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden digests: %v (generate with -update)", err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	hint := "the tables changed but memo.CodeVersion did not: bump CodeVersion, then rerun with -update"
	if g.CodeVersion != memo.CodeVersion {
		hint = "memo.CodeVersion was bumped from " + g.CodeVersion + ": rerun with -update to record the new tables"
	}
	ids := make([]string, 0, len(tables))
	for id := range tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		want, ok := g.Tables[id]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest (%s)", id, hint)
		case tableDigest(tables[id]) != want:
			t.Errorf("%s: table digest differs from the golden (%s)", id, hint)
		}
	}
	for id := range g.Tables {
		if _, ok := tables[id]; !ok {
			t.Errorf("%s: golden digest for an experiment that no longer exists (%s)", id, hint)
		}
	}
}
