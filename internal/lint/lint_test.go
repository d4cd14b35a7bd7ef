package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// analyzeFixture type-checks one fixture file as package path and runs the
// given analyzers over it.
func analyzeFixture(t *testing.T, path, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	return analyzeFixtureOpts(t, path, src, Options{}, analyzers...)
}

// analyzeFixtureOpts is analyzeFixture with explicit run options (e.g. stale
// ignore-directive detection).
func analyzeFixtureOpts(t *testing.T, path, src string, opts Options, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	return RunOpts([]*Package{checkFixture(t, path, ".", src)}, analyzers, opts)
}

// checkFixture type-checks src as the one file of package path in directory
// dir, through the process's shared file set and standard-library importer.
func checkFixture(t *testing.T, path, dir, src string) *Package {
	t.Helper()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := newInfo()
	conf := types.Config{Importer: std}
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: []*ast.File{f}, TPkg: tpkg, Info: info}
}

// loadTempModule writes the files (paths relative to the module root, which
// gets a go.mod automatically) into a temp directory and loads every package
// in it. Used by the cross-package and escape-gate tests, which need real
// package boundaries rather than a single fixture file.
func loadTempModule(t *testing.T, modpath string, files map[string]string) (string, []*Package) {
	t.Helper()
	dir := writeTempModule(t, modpath, files)
	pkgs, err := LoadPackages(dir, []string{dir + string(filepath.Separator) + "..."})
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	return dir, pkgs
}

// writeTempModule writes loadTempModule's files and returns the module root.
func writeTempModule(t *testing.T, modpath string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module " + modpath + "\n\ngo 1.22\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// finding is one expected diagnostic: the line it lands on and a substring
// of its message.
type finding struct {
	line int
	msg  string
}

// checkFindings asserts the diagnostics exactly match the expectations.
func checkFindings(t *testing.T, diags []Diagnostic, want []finding) {
	t.Helper()
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d finding(s):\n  %s\nwant %d", len(diags), strings.Join(got, "\n  "), len(want))
	}
	for i, w := range want {
		if diags[i].Pos.Line != w.line || !strings.Contains(diags[i].Message, w.msg) {
			t.Errorf("finding %d = %q, want line %d containing %q", i, got[i], w.line, w.msg)
		}
	}
}

func TestUnitsDiscipline(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []finding
	}{
		{
			name: "inline pow conversions",
			path: "example.com/m/internal/rf",
			src: `package rf

import "math"

func conv(db float64) (float64, float64, float64) {
	lin := math.Pow(10, db/10)
	gain := math.Pow(10, db/20)
	neg := math.Pow(10, -db/10)
	return lin, gain, neg
}
`,
			want: []finding{
				{6, "math.Pow(10, x/10)"},
				{7, "math.Pow(10, x/20)"},
				{8, "math.Pow(10, x/10)"},
			},
		},
		{
			name: "inline log conversions",
			path: "example.com/m/internal/rf",
			src: `package rf

import "math"

func conv(lin float64) (float64, float64) {
	db := 10 * math.Log10(lin)
	gdb := 20*math.Log10(lin) + 30
	return db, gdb
}
`,
			want: []finding{
				{6, "10*math.Log10(x)"},
				{7, "20*math.Log10(x)"},
			},
		},
		{
			name: "same domain and unrelated math are clean",
			path: "example.com/m/internal/rf",
			src: `package rf

import "math"

func ok(powerDBm, lossDB, aW, bW, x float64) float64 {
	return powerDBm - lossDB + aW*bW + math.Pow(10, x/3) + 7*math.Log10(x)
}
`,
			want: nil,
		},
		{
			name: "units package itself is exempt",
			path: "example.com/m/internal/units",
			src: `package units

import "math"

func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }
`,
			want: nil,
		},
		{
			name: "ignore directive suppresses",
			path: "example.com/m/internal/rf",
			src: `package rf

import "math"

func conv(db float64) float64 {
	//lint:ignore unitsdiscipline exercising the raw formula on purpose
	return math.Pow(10, db/10)
}
`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFindings(t, analyzeFixture(t, c.path, c.src, UnitsDiscipline), c.want)
		})
	}
}

func TestSeededRand(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []finding
	}{
		{
			name: "global functions flagged",
			src: `package sim

import "math/rand"

func draw() (float64, int) {
	return rand.Float64(), rand.Intn(8)
}
`,
			want: []finding{
				{6, "rand.Float64"},
				{6, "rand.Intn"},
			},
		},
		{
			name: "global function value flagged",
			src: `package sim

import "math/rand"

var gen func() float64 = rand.NormFloat64
`,
			want: []finding{
				{5, "rand.NormFloat64"},
			},
		},
		{
			name: "explicit seeded source is clean",
			src: `package sim

import "math/rand"

func draw(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}
`,
			want: nil,
		},
		{
			name: "time-derived seed flagged",
			src: `package sim

import (
	"math/rand"
	"time"
)

func draw() float64 {
	r := rand.New(rand.NewSource(time.Now().UnixNano()))
	return r.Float64()
}
`,
			want: []finding{
				{9, "derives its seed from time.Now"},
			},
		},
		{
			name: "ignore directive suppresses",
			src: `package sim

import "math/rand"

//lint:ignore seededrand this shuffle is not part of a reproducible experiment
var x = rand.Int()
`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFindings(t, analyzeFixture(t, "example.com/m/internal/sim", c.src, SeededRand), c.want)
		})
	}
}

func TestFloatEq(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []finding
	}{
		{
			name: "float equality flagged",
			src: `package sim

func cmp(a, b float64, c complex128) bool {
	return a == b || a != 0.1 || c == 1i
}
`,
			want: []finding{
				{4, "compared with =="},
				{4, "compared with !="},
				{4, "compared with =="},
			},
		},
		{
			name: "zero sentinel and integers are clean",
			src: `package sim

func cmp(a float64, n int) bool {
	return a == 0 || a != 0.0 || n == 3
}
`,
			want: nil,
		},
		{
			name: "ignore directive suppresses",
			src: `package sim

func cmp(a, b float64) bool {
	//lint:ignore floateq bit-exact golden comparison is the point here
	return a == b
}
`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFindings(t, analyzeFixture(t, "example.com/m/internal/sim", c.src, FloatEq), c.want)
		})
	}
}

func TestUnkeyedConfig(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []finding
	}{
		{
			name: "unkeyed config and params flagged",
			src: `package sim

type AmpConfig struct{ GainDB, IIP3DBm float64 }
type SweepParams struct{ Lo, Hi float64 }

var a = AmpConfig{12, -10}
var b = &SweepParams{0, 1}
var c = []AmpConfig{{3, 4}}
`,
			want: []finding{
				{6, "AmpConfig"},
				{7, "SweepParams"},
				{8, "AmpConfig"},
			},
		},
		{
			name: "keyed, unexported and unrelated literals are clean",
			src: `package sim

type AmpConfig struct{ GainDB, IIP3DBm float64 }
type point struct{ X, Y float64 }
type ampConfig struct{ G float64 }

var a = AmpConfig{GainDB: 12, IIP3DBm: -10}
var b = point{1, 2}
var c = ampConfig{3}
var d = AmpConfig{}
`,
			want: nil,
		},
		{
			name: "ignore directive suppresses",
			src: `package sim

type AmpConfig struct{ GainDB, IIP3DBm float64 }

//lint:ignore unkeyedconfig two-field literal in a table kept positional for brevity
var a = AmpConfig{12, -10}
`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFindings(t, analyzeFixture(t, "example.com/m/internal/sim", c.src, UnkeyedConfig), c.want)
		})
	}
}

// TestIgnoreDirectives and TestStaleIgnores run the directive machinery
// with FloatEq, the one analyzer their fixtures trip, so no other analyzer
// (testonly flags a fixture function no production code calls) adds
// findings they are not about.
func TestIgnoreDirectives(t *testing.T) {
	t.Run("all suppresses every analyzer", func(t *testing.T) {
		src := `package sim

func cmp(a, b float64) bool {
	//lint:ignore all demonstration
	return a == b
}
`
		checkFindings(t, analyzeFixture(t, "example.com/m/internal/sim", src, FloatEq), nil)
	})
	t.Run("wrong analyzer name does not suppress", func(t *testing.T) {
		src := `package sim

func cmp(a, b float64) bool {
	//lint:ignore unitsdiscipline wrong analyzer
	return a == b
}
`
		diags := analyzeFixture(t, "example.com/m/internal/sim", src, FloatEq)
		checkFindings(t, diags, []finding{{5, "compared with =="}})
	})
	t.Run("malformed directive is reported and suppresses nothing", func(t *testing.T) {
		src := `package sim

func cmp(a, b float64) bool {
	//lint:ignore missing-reason-and-unknown-name
	return a == b
}
`
		diags := analyzeFixture(t, "example.com/m/internal/sim", src, FloatEq)
		checkFindings(t, diags, []finding{
			{4, "malformed ignore directive"},
			{5, "compared with =="},
		})
	})
	t.Run("trailing same-line directive suppresses", func(t *testing.T) {
		src := `package sim

func cmp(a, b float64) bool {
	return a == b //lint:ignore floateq same-line justification
}
`
		checkFindings(t, analyzeFixture(t, "example.com/m/internal/sim", src, FloatEq), nil)
	})
}

func TestStaleIgnores(t *testing.T) {
	stale := `package sim

//lint:ignore floateq nothing on this line compares floats anymore
var x = 3
`
	t.Run("unused directive reported with StaleIgnores", func(t *testing.T) {
		diags := analyzeFixtureOpts(t, "example.com/m/internal/sim", stale, Options{StaleIgnores: true}, FloatEq)
		checkFindings(t, diags, []finding{{3, "suppresses no diagnostic"}})
	})
	t.Run("unused directive tolerated by default", func(t *testing.T) {
		checkFindings(t, analyzeFixture(t, "example.com/m/internal/sim", stale, FloatEq), nil)
	})
	t.Run("used directive is not stale", func(t *testing.T) {
		src := `package sim

func cmp(a, b float64) bool {
	//lint:ignore floateq bit-exact golden comparison is the point here
	return a == b
}
`
		diags := analyzeFixtureOpts(t, "example.com/m/internal/sim", src, Options{StaleIgnores: true}, FloatEq)
		checkFindings(t, diags, nil)
	})
	t.Run("escape directives are the escape gate's accounting", func(t *testing.T) {
		// An unused //lint:ignore escape must NOT be reported by the AST
		// run: only EscapeCheck knows whether it suppressed a compiler
		// diagnostic.
		src := `package sim

//lint:ignore escape accounted for by EscapeCheck, not the AST run
var x = 3
`
		diags := analyzeFixtureOpts(t, "example.com/m/internal/sim", src, Options{StaleIgnores: true}, FloatEq)
		checkFindings(t, diags, nil)
	})
}

// Run applies the analyzers to every package and returns the surviving
// diagnostics sorted by position. It is RunOpts with default options.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunOpts(pkgs, analyzers, Options{})
}
