package lint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
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
			t.Fatal("no go.mod found above the test directory")
		}
		dir = parent
	}
}

// tree is the whole module, loaded once per test binary: the whole-tree
// tests only read the packages (each run collects its own ignore
// directives), and the load, which type-checks every package, is the bulk
// of each test's time under -race.
var tree struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// treePackages returns the whole module's packages.
func treePackages(t *testing.T) []*Package {
	t.Helper()
	root := moduleRoot(t)
	tree.once.Do(func() { tree.pkgs, tree.err = LoadPackages(root, []string{"./..."}) })
	if tree.err != nil {
		t.Fatalf("loading module packages: %v", tree.err)
	}
	return tree.pkgs
}

// TestSuiteCleanOnTree runs the full analyzer suite over the whole module
// and requires zero findings: the repository itself is the largest fixture,
// and this is the same gate scripts/check.sh enforces in CI.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs := treePackages(t)
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern expansion is broken", len(pkgs))
	}
	// StaleIgnores on: every //lint:ignore directive in the tree must still
	// be earning its keep.
	for _, d := range RunOpts(pkgs, All(), Options{StaleIgnores: true}) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestEscapeCleanOnTree runs the compiler-backed escape gate over the whole
// module and requires zero findings: every //lint:hotpath function either
// triggers no escape diagnostics or justifies each one with an ignore
// directive, and no escape-ignore directive is stale.
func TestEscapeCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the hot packages with -gcflags=-m; skipped in -short mode")
	}
	diags, err := EscapeCheck(treePackages(t), Options{StaleIgnores: true})
	if err != nil {
		t.Fatalf("EscapeCheck: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestLoadPackagesSingleDir checks non-recursive pattern resolution.
func TestLoadPackagesSingleDir(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := LoadPackages(root, []string{"./internal/units"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "wlansim/internal/units" {
		t.Fatalf("got %+v, want exactly wlansim/internal/units", pkgs)
	}
	if len(pkgs[0].Files) == 0 || pkgs[0].TPkg == nil {
		t.Fatal("package loaded without files or type information")
	}
}
