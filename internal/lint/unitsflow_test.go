package lint

import "testing"

func TestUnitsFlow(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []finding
	}{
		{
			name: "dB laundered through unsuffixed local",
			src: `package rf

func mix(gainDB, noiseWatts float64) float64 {
	x := gainDB
	return x + noiseWatts
}
`,
			want: []finding{
				{5, "arithmetic mixes dB-domain"},
			},
		},
		{
			name: "direct suffix mixing",
			src: `package rf

func mix(gainDB, noiseWatts float64) float64 {
	return gainDB + noiseWatts
}
`,
			want: []finding{
				{4, `mixes dB-domain "gainDB" with linear-domain "noiseWatts"`},
			},
		},
		{
			name: "domain mixing",
			src: `package rf

type spec struct{ PowerDBm float64 }

func mix(gainDB, powerWatts, noiseLin float64, s spec) float64 {
	bad := gainDB * powerWatts
	bad2 := s.PowerDBm + noiseLin
	ok := gainDB - 3.0
	return bad + bad2 + ok
}
`,
			want: []finding{
				{6, `mixes dB-domain "gainDB" with linear-domain "powerWatts"`},
				{7, `mixes dB-domain "PowerDBm" with linear-domain "noiseLin"`},
			},
		},
		{
			name: "dB over linear quotient",
			src: `package rf

func ratio(lossDB, bandwidthHz float64) float64 {
	return lossDB / bandwidthHz
}
`,
			want: []finding{
				{4, `mixes dB-domain "lossDB" with linear-domain "bandwidthHz"`},
			},
		},
		{
			name: "assignment chain resolves over fixpoint rounds",
			src: `package rf

func mix(gainDB, noiseWatts float64) float64 {
	a := gainDB
	b := a
	c := b
	return c + noiseWatts
}
`,
			want: []finding{
				{7, "arithmetic mixes dB-domain"},
			},
		},
		{
			name: "dB times dB product",
			src: `package rf

func gain(aDB, bDB float64) float64 {
	return aDB * bDB
}
`,
			want: []finding{
				{4, "product of two dB-domain values"},
			},
		},
		{
			name: "scaling dB by plain factor is clean",
			src: `package rf

func half(aDB float64) float64 {
	return 0.5 * aDB
}
`,
			want: nil,
		},
		{
			name: "per-dB slope times dB is clean",
			src: `package rf

func phase(ampmDegPerDB, depthDB float64) float64 {
	return ampmDegPerDB * depthDB
}
`,
			want: nil,
		},
		{
			name: "dB argument into linear parameter of intra-package callee",
			src: `package rf

func amp(gLin float64) float64 { return gLin }

func use(gainDB float64) float64 {
	return amp(gainDB)
}
`,
			want: []finding{
				{6, `dB-domain argument "gainDB" passed to linear-domain parameter "gLin" of amp`},
			},
		},
		{
			name: "linear flows out of suffix-named function into dB sum",
			src: `package rf

func noiseFloorWatts() float64 { return 1e-12 }

func margin(snrDB float64) float64 {
	x := noiseFloorWatts()
	return x + snrDB
}
`,
			want: []finding{
				{7, "arithmetic mixes dB-domain"},
			},
		},
		{
			name: "composite-literal field mismatch",
			src: `package rf

type Cfg struct{ NoiseDBm float64 }

func build(noiseWatts float64) Cfg {
	return Cfg{NoiseDBm: noiseWatts}
}
`,
			want: []finding{
				{6, `linear-domain value "noiseWatts" assigned to dB-domain field "NoiseDBm"`},
			},
		},
		{
			name: "return contradicting name-suffixed result",
			src: `package rf

func totalDB(aWatts float64) float64 {
	return aWatts
}
`,
			want: []finding{
				{4, `linear-domain value "aWatts" returned from dB-suffixed function "totalDB"`},
			},
		},
		{
			name: "per-Hz density carries the numerator domain",
			src: `package rf

func densityDBmPerHz(powerDBm float64) float64 {
	return powerDBm
}
`,
			want: nil,
		},
		{
			name: "compound assignment mixing",
			src: `package rf

func acc(lossDB float64) float64 {
	total := lossDB
	sumWatts := 0.0
	sumWatts += total
	return sumWatts
}
`,
			want: []finding{
				{6, "compound assignment mixes"},
			},
		},
		{
			name: "ignore directive suppresses",
			src: `package rf

func mix(gainDB, noiseWatts float64) float64 {
	x := gainDB
	//lint:ignore unitsflow intentional raw mix for the fixture
	return x + noiseWatts
}
`,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFindings(t, analyzeFixture(t, "example.com/m/internal/rf", c.src, UnitsFlow), c.want)
		})
	}
}

// TestUnitsFlowCrossPackage proves facts published while analyzing an
// imported package reach the importer's pass: the linear domain of
// a.NoiseFloorWatts crosses the package boundary and collides with a dB term
// in b — a case no single-expression check can see.
func TestUnitsFlowCrossPackage(t *testing.T) {
	_, pkgs := loadTempModule(t, "fixture.example/flow", map[string]string{
		"a/a.go": `package a

// NoiseFloorWatts reports the receiver noise floor as linear power.
func NoiseFloorWatts() float64 { return 4e-15 }
`,
		"b/b.go": `package b

import "fixture.example/flow/a"

func Margin(snrDB float64) float64 {
	floor := a.NoiseFloorWatts()
	return floor + snrDB
}
`,
	})
	diags := Run(pkgs, []*Analyzer{UnitsFlow})
	checkFindings(t, diags, []finding{
		{7, "arithmetic mixes dB-domain"},
	})
}

// TestUnitsFlowUnitsTableCrossPackage checks the hardcoded internal/units
// fact table: a dB value passed to a linear parameter of a units conversion
// is flagged at the call site in another package.
func TestUnitsFlowUnitsTableCrossPackage(t *testing.T) {
	_, pkgs := loadTempModule(t, "fixture.example/conv", map[string]string{
		"internal/units/units.go": `package units

import "math"

// WattsToDBm converts linear watts to dBm.
func WattsToDBm(w float64) float64 { return 10*math.Log10(w) + 30 }
`,
		"internal/rf/rf.go": `package rf

import "fixture.example/conv/internal/units"

func Wrong(snrDB float64) float64 {
	return units.WattsToDBm(snrDB)
}
`,
	})
	diags := Run(pkgs, []*Analyzer{UnitsFlow})
	checkFindings(t, diags, []finding{
		{6, "dB-domain argument"},
	})
}

func TestFlowDomainOf(t *testing.T) {
	cases := []struct {
		name string
		want Domain
	}{
		{"gainDB", DomainDB},
		{"powerDBm", DomainDB},
		{"noiseWatts", DomainLinear},
		{"snrLin", DomainLinear},
		{"bandwidthHz", DomainLinear},
		{"densityDBmPerHz", DomainDB}, // numerator domain
		{"ampmDegPerDB", DomainNone},  // slope per dB, not a dB value
		{"voltsPerDBm", DomainNone},   // slope per dBm
		{"plain", DomainNone},
	}
	for _, c := range cases {
		if got := flowDomainOf(c.name); got != c.want {
			t.Errorf("flowDomainOf(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}
