package analysis

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// runFixture loads testdata/src/<fixture> as a package at importPath
// against the real module source, runs one analyzer over it, and checks
// the diagnostics against the fixture's // want comments — both that every
// violation fires and that every corrected form stays silent.
func runFixture(t *testing.T, a *Analyzer, importPath, fixture string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "src", fixture, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files for %s: %v", fixture, err)
	}
	sort.Strings(files)
	mod, pkg, err := LoadFixture(moduleRoot(t), importPath, files...)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	exps, err := ParseExpectations(mod.Fset, pkg.Files)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) == 0 {
		t.Fatalf("fixture %s declares no // want expectations", fixture)
	}
	diags := Run(mod, []*Analyzer{a}, []*Package{pkg})
	for _, problem := range CheckExpectations(exps, diags) {
		t.Error(problem)
	}
}

func TestHotpathStringsFixture(t *testing.T) {
	// The fixture poses as internal/exec so the hot-path package filter
	// applies to it.
	runFixture(t, HotpathStrings, "toorjah/internal/exec", "hotpath")
}

// TestHotpathPackedKeysFixture: the shapes a packed string key takes, posing
// as internal/cache — the last package of the hot-path list to have built one.
func TestHotpathPackedKeysFixture(t *testing.T) {
	runFixture(t, HotpathStrings, "toorjah/internal/cache", "packedkey")
}

func TestCtxFirstFixture(t *testing.T) {
	runFixture(t, CtxFirst, "toorjah/internal/ctxfixture", "ctxfirst")
}

func TestSnapshotDisciplineFixture(t *testing.T) {
	runFixture(t, SnapshotDiscipline, "toorjah/internal/snapfixture", "snapshot")
}

func TestPoolHygieneFixture(t *testing.T) {
	runFixture(t, PoolHygiene, "toorjah/internal/poolfixture", "pool")
}

func TestHandlerHygieneFixture(t *testing.T) {
	runFixture(t, HandlerHygiene, "toorjah/internal/handfixture", "handler")
}

func TestMetricsHygieneFixture(t *testing.T) {
	runFixture(t, MetricsHygiene, "toorjah/internal/metfixture", "metrics")
}

func TestDurabilityHygieneFixture(t *testing.T) {
	// The fixture poses as internal/wal so the durable-path package filter
	// applies to it.
	runFixture(t, DurabilityHygiene, "toorjah/internal/wal", "durability")
}

// TestDurabilityWALOnly pins the analyzer's package filter: the same
// unchecked write-path code is silent outside internal/wal, where an
// unsynced write is an ordinary buffered file, not a broken durability
// promise.
func TestDurabilityWALOnly(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "src", "durability", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatal("no durability fixture files")
	}
	mod, pkg, err := LoadFixture(moduleRoot(t), "toorjah/internal/service", files...)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(mod, []*Analyzer{DurabilityHygiene}, []*Package{pkg}); len(diags) != 0 {
		t.Errorf("durability-hygiene fired outside internal/wal: %v", diags)
	}
}

// TestHotPathPackagesOnly pins the analyzer's package filter: the same
// string-materializing code is silent outside the hot-path packages.
func TestHotPathPackagesOnly(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "src", "hotpath", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatal("no hotpath fixture files")
	}
	mod, pkg, err := LoadFixture(moduleRoot(t), "toorjah/internal/coldpath", files...)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(mod, []*Analyzer{HotpathStrings}, []*Package{pkg}); len(diags) != 0 {
		t.Errorf("hotpath-strings fired outside hot-path packages: %v", diags)
	}
}

// TestSuiteNames pins the analyzer registry: names are the public contract
// of -only flags and //toorjahvet:allow directives.
func TestSuiteNames(t *testing.T) {
	want := []string{
		"hotpath-strings", "ctx-first", "snapshot-discipline", "pool-hygiene",
		"handler-hygiene", "metrics-hygiene", "durability-hygiene",
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
		if ByName(a.Name) != a {
			t.Errorf("ByName(%s) does not round-trip", a.Name)
		}
	}
	if ByName("nonsense") != nil {
		t.Error("ByName(nonsense) should be nil")
	}
}

// TestRepoInvariants runs the full analyzer suite over the real module, so
// a bare `go test ./...` fails the moment any repo invariant regresses —
// the same gate CI applies via cmd/toorjahvet.
func TestRepoInvariants(t *testing.T) {
	mod, err := LoadModule(moduleRoot(t))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(mod.Pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the loader is missing the module", len(mod.Pkgs))
	}
	for _, d := range Run(mod, Suite(), mod.Pkgs) {
		t.Errorf("invariant violation: %s", d)
	}
}
