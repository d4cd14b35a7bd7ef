package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// analyzeAsmTwinFixture type-checks src as an internal/kernels package whose
// directory on disk holds testSrc as a _test.go file (empty testSrc means no
// test files), so the analyzer's test-reference scan sees a real directory.
func analyzeAsmTwinFixture(t *testing.T, src, testSrc string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if testSrc != "" {
		if err := os.WriteFile(filepath.Join(dir, "fixture_test.go"), []byte(testSrc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg := checkFixture(t, "example.com/m/internal/kernels", dir, src)
	return Run([]*Package{pkg}, []*Analyzer{AsmTwin})
}

func TestAsmTwin(t *testing.T) {
	const goodTest = `package kernels

import "testing"

func TestFooTwin(t *testing.T) { fooAsm(nil, 0); fooGo(nil, 0) }
`
	cases := []struct {
		name    string
		src     string
		testSrc string
		want    []finding
	}{
		{
			name: "conforming stub passes",
			src: `package kernels

//go:noescape
func fooAsm(dst []float64, s float64)

func fooGo(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}
`,
			testSrc: goodTest,
			want:    nil,
		},
		{
			name: "missing noescape directive",
			src: `package kernels

func fooAsm(dst []float64, s float64)

func fooGo(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}
`,
			testSrc: goodTest,
			want: []finding{
				{3, "lacks a //go:noescape directive"},
			},
		},
		{
			name: "stub not following naming convention",
			src: `package kernels

//go:noescape
func fooVector(dst []float64, s float64)
`,
			testSrc: "",
			want: []finding{
				{4, "does not follow the fooAsm naming convention"},
			},
		},
		{
			name: "missing twin",
			src: `package kernels

//go:noescape
func fooAsm(dst []float64, s float64)
`,
			testSrc: goodTest,
			want: []finding{
				{4, "has no pure-Go twin fooGo"},
			},
		},
		{
			name: "twin signature mismatch",
			src: `package kernels

//go:noescape
func fooAsm(dst []float64, s float64)

func fooGo(dst []float64, s float32) {
	for i := range dst {
		dst[i] *= float64(s)
	}
}
`,
			testSrc: goodTest,
			want: []finding{
				{4, "different signatures"},
			},
		},
		{
			name: "stub without test reference",
			src: `package kernels

//go:noescape
func fooAsm(dst []float64, s float64)

func fooGo(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}
`,
			testSrc: `package kernels

import "testing"

func TestUnrelated(t *testing.T) { fooGo(nil, 0) }
`,
			want: []finding{
				{4, "not referenced by any _test.go file"},
			},
		},
		{
			name: "feature probe exempt",
			src: `package kernels

func cpuHasAVX2() bool
`,
			testSrc: "",
			want:    nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkFindings(t, analyzeAsmTwinFixture(t, tc.src, tc.testSrc), tc.want)
		})
	}
}

func TestAsmTwinSkipsOtherPackages(t *testing.T) {
	diags := analyzeFixture(t, "example.com/m/internal/dsp", `package dsp

func fooAsm(dst []float64, s float64)
`, AsmTwin)
	checkFindings(t, diags, nil)
}
