package lint

import (
	"path/filepath"
	"testing"
)

// testOnlyModule is a small module whose internal/rf package exports one
// function per caller kind: only a test calls Helper, Recursive calls only
// itself, and cmd/, the root package and another internal package each
// call one of the others. Its methods cover every interface exemption.
var testOnlyModule = map[string]string{
	"internal/rf/rf.go": `package rf

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

func Helper() int { return 1 }

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func UsedByCmd() int   { return 2 }
func UsedByRoot() int  { return 3 }
func UsedByOther() int { return 4 }

// FrontEnd is reached through the interface only.
type FrontEnd interface {
	Process(x []complex128) []complex128
	Reset()
}

type Receiver struct{}

func NewReceiver() FrontEnd                           { return &Receiver{} }
func (r *Receiver) Process(x []complex128) []complex128 { return x }
func (r *Receiver) Reset()                             {}

type Level int

func (l Level) String() string { return fmt.Sprint(int(l)) }

type Err struct{}

func (Err) Error() string { return "err" }

type Cfg struct{ A int }

func (c Cfg) MarshalJSON() ([]byte, error) { return json.Marshal(c.A) }
func (c *Cfg) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, &c.A) }

type fibSource struct{ s int64 }

func (f *fibSource) Int63() int64    { return f.s }
func (f *fibSource) Seed(seed int64) { f.s = seed }

// NewRand is the rand.Source's production caller.
func NewRand() *rand.Rand { return rand.New(&fibSource{}) }
`,
	"internal/rf/rf_test.go": `package rf

import "testing"

func TestHelper(t *testing.T) { _ = Helper() }
`,
	"internal/core/core.go": `package core

import "example.com/m/internal/rf"

func run() int { return rf.UsedByOther() }

var _ = run
`,
	"m.go": `package m

import "example.com/m/internal/rf"

func Root() int { return rf.UsedByRoot() }
`,
	"cmd/tool/main.go": `package main

import (
	"fmt"

	"example.com/m/internal/rf"
)

func main() {
	fe := rf.NewReceiver()
	fe.Reset()
	fmt.Println(rf.UsedByCmd(), fe.Process(nil), rf.NewRand().Int63())
}
`,
}

// testOnlyFindings are the two findings testOnlyModule must produce: the
// test-only helper and the self-recursive function.
var testOnlyFindings = []finding{
	{9, "exported func Helper has no non-test caller"},
	{11, "exported func Recursive has no non-test caller"},
}

// TestTestOnlyFlagsTestOnlyCode runs the analyzer over the whole fixture
// module: only the helper that a test calls and the function that only
// calls itself are flagged. Callers in cmd/, in the root package and in
// another internal package clear the rest, and the methods reached through
// an interface (a module interface, fmt.Stringer, error,
// json.Marshaler/Unmarshaler, rand.Source) are exempt.
func TestTestOnlyFlagsTestOnlyCode(t *testing.T) {
	_, pkgs := loadTempModule(t, "example.com/m", testOnlyModule)
	checkFindings(t, RunOpts(pkgs, []*Analyzer{TestOnly}, Options{StaleIgnores: true}), testOnlyFindings)
}

// TestTestOnlyOnePackageRun loads only internal/rf: the callers in the
// packages the run was not given still clear their functions, because the
// analyzer resolves callers over the whole module.
func TestTestOnlyOnePackageRun(t *testing.T) {
	dir, _ := loadTempModule(t, "example.com/m", testOnlyModule)
	pkgs, err := LoadPackages(dir, []string{filepath.Join(dir, "internal", "rf")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want internal/rf alone", len(pkgs))
	}
	checkFindings(t, RunOpts(pkgs, []*Analyzer{TestOnly}, Options{StaleIgnores: true}), testOnlyFindings)
}

// testOnlyUnexportedModule covers the unexported declarations: a reference
// oracle and a method only tests call are flagged; a helper production
// calls, a method reached through an unexported interface, init and the
// pure-Go twin of an assembly stub are not.
var testOnlyUnexportedModule = map[string]string{
	"internal/kernels/k.go": `package kernels

var table [4]float64

func init() { fill() }

func fill() {
	for i := range table {
		table[i] = float64(i)
	}
}

func Scale(x []float64) { scaleLoop(x) }

func scaleLoop(x []float64) {
	for i := range x {
		x[i] *= 2
	}
}

func scaleRef(x []float64) { scaleLoop(x) }

type plan struct{}

func (p *plan) run()    {}
func (p *plan) runRef() {}

type stepper interface{ step() }

type walker struct{}

func (walker) step() {}

func Walk() {
	var s stepper = walker{}
	s.step()
	(&plan{}).run()
	addAsm(nil)
}

//go:noescape
func addAsm(x []float64)

func addGo(x []float64) {}
`,
	"internal/kernels/k_test.go": `package kernels

import "testing"

func TestRefs(t *testing.T) {
	scaleRef(nil)
	(&plan{}).runRef()
	addGo(nil)
}
`,
	"cmd/tool/main.go": `package main

import "example.com/m/internal/kernels"

func main() {
	kernels.Scale(nil)
	kernels.Walk()
}
`,
}

// TestTestOnlyUnexported runs the analyzer over testOnlyUnexportedModule:
// only the test-only oracle and method are flagged.
func TestTestOnlyUnexported(t *testing.T) {
	_, pkgs := loadTempModule(t, "example.com/m", testOnlyUnexportedModule)
	checkFindings(t, RunOpts(pkgs, []*Analyzer{TestOnly}, Options{StaleIgnores: true}), []finding{
		{21, "unexported func scaleRef has no non-test caller"},
		{26, "unexported method plan.runRef has no non-test caller"},
	})
}

// TestTestOnlyIgnoreDirective checks that //lint:ignore testonly <reason>
// suppresses a finding and that a directive on a function with a
// production caller is reported as stale.
func TestTestOnlyIgnoreDirective(t *testing.T) {
	files := map[string]string{
		"internal/kernels/k.go": `package kernels

var useSIMD bool

//lint:ignore testonly flips the unexported useSIMD for other packages' tests
func SetDispatch(on bool) { useSIMD = on }

//lint:ignore testonly stale: Dispatch has a production caller
func Dispatch() bool { return useSIMD }
`,
		"cmd/tool/main.go": `package main

import "example.com/m/internal/kernels"

func main() { println(kernels.Dispatch()) }
`,
	}
	_, pkgs := loadTempModule(t, "example.com/m", files)
	checkFindings(t, RunOpts(pkgs, []*Analyzer{TestOnly}, Options{StaleIgnores: true}), []finding{
		{8, "suppresses no diagnostic"},
	})
}

// TestTestOnlySkipsNonInternalPackages checks that exported functions
// outside internal/ (the root package's API, commands) are out of scope.
func TestTestOnlySkipsNonInternalPackages(t *testing.T) {
	_, pkgs := loadTempModule(t, "example.com/m", map[string]string{
		"m.go":          "package m\n\nfunc Unused() int { return 1 }\n",
		"pkg/util/u.go": "package util\n\nfunc Unused() int { return 1 }\n",
	})
	checkFindings(t, RunOpts(pkgs, []*Analyzer{TestOnly}, Options{}), nil)
}
