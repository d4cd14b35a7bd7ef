package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestListAndUnknownAnalyzer(t *testing.T) {
	if code := run([]string{"-list"}, os.Stdout); code != 0 {
		t.Errorf("-list exited %d, want 0", code)
	}
	if code := run([]string{"-analyzers", "nosuchanalyzer"}, os.Stdout); code != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", code)
	}
}

// cleanModule is a fixture module no analyzer reports on.
var cleanModule = map[string]string{"clean.go": `package clean

// Twice doubles x.
func Twice(x float64) float64 { return 2 * x }
`}

func TestCleanPackageExitsZero(t *testing.T) {
	if code := run([]string{recursive(writeModule(t, cleanModule))}, os.Stdout); code != 0 {
		t.Errorf("clean package exited %d, want 0", code)
	}
}

func TestFindingsExitOne(t *testing.T) {
	dir := writeModule(t, map[string]string{"bad.go": `package bad

import "math/rand"

func Draw(db float64) float64 {
	return rand.Float64() * db
}
`})
	if code := run([]string{recursive(dir)}, os.Stdout); code != 1 {
		t.Errorf("package with findings exited %d, want 1", code)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"bad.go": `package bad

func Mix(gainDB, noiseWatts float64) float64 {
	x := gainDB
	return x + noiseWatts
}
`})
	out, code := runCapture(t, []string{"-json", recursive(dir)})
	if code != 1 {
		t.Fatalf("exited %d, want 1", code)
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, out)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %s", len(diags), out)
	}
	d := diags[0]
	if d.Analyzer != "unitsflow" || d.Severity != "error" || d.Line != 5 || d.File == "" {
		t.Errorf("unexpected diagnostic %+v", d)
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	out, code := runCapture(t, []string{"-json", recursive(writeModule(t, cleanModule))})
	if code != 0 {
		t.Fatalf("exited %d, want 0", code)
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(out, &diags); err != nil || len(diags) != 0 {
		t.Fatalf("want empty JSON array, got %q (err %v)", out, err)
	}
}

func TestEscapeFlag(t *testing.T) {
	dir := writeModule(t, map[string]string{"hot.go": `package bad

// Leak forces an escape inside a hotpath function.
//
//lint:hotpath
func Leak(n int) []int {
	return make([]int, n)
}
`})
	if code := run([]string{"-escape", recursive(dir)}, os.Stdout); code != 1 {
		t.Errorf("-escape on a leaking hotpath function exited %d, want 1", code)
	}
	if code := run([]string{"-escape", filepath.Join("..", "..", "internal", "units")}, os.Stdout); code != 0 {
		t.Errorf("-escape on a clean package exited %d, want 0", code)
	}
}

func TestAllowStaleIgnoresDowngrades(t *testing.T) {
	files := map[string]string{"stale.go": `package bad

//lint:ignore floateq nothing here compares floats anymore
var X = 3
`}
	dir := writeModule(t, files)
	if code := run([]string{recursive(dir)}, os.Stdout); code != 1 {
		t.Errorf("stale directive exited %d, want 1", code)
	}
	if code := run([]string{"-allow-stale-ignores", recursive(dir)}, os.Stdout); code != 0 {
		t.Errorf("stale directive with -allow-stale-ignores exited %d, want 0", code)
	}
}

// writeModule lays out a temp module with the given files and returns its dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixture.example/bad\n\ngo 1.22\n")
	for name, src := range files {
		writeFile(t, filepath.Join(dir, name), src)
	}
	return dir
}

// recursive renders dir as a go-style recursive package pattern.
func recursive(dir string) string {
	return dir + string(filepath.Separator) + "..."
}

// runCapture runs the CLI with stdout redirected to a temp file and returns
// what it printed.
func runCapture(t *testing.T, args []string) ([]byte, int) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	code := run(args, f)
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out, code
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
