package lint

import (
	"go/types"
	"strings"
)

// Domain classifies a numeric quantity by unit convention: decibel-domain
// (relative dB or absolute dBm) or linear-domain (ratios, watts, volts,
// hertz). The lattice is flat with a bottom (DomainNone, nothing known) and
// a top (DomainConflict, observed in both domains — treated as unknown by
// the checks so one genuine error does not cascade).
type Domain uint8

const (
	DomainNone Domain = iota
	DomainDB
	DomainLinear
	DomainConflict
)

// String names the domain for diagnostics.
func (d Domain) String() string {
	switch d {
	case DomainDB:
		return "dB"
	case DomainLinear:
		return "linear"
	case DomainConflict:
		return "conflicting"
	}
	return "unknown"
}

// known reports whether the domain carries usable information.
func (d Domain) known() bool { return d == DomainDB || d == DomainLinear }

// join combines two observations of the same quantity.
func (d Domain) join(o Domain) Domain {
	switch {
	case d == DomainNone:
		return o
	case o == DomainNone:
		return d
	case d == o:
		return d
	}
	return DomainConflict
}

// Identifier-suffix conventions for the two unit domains. A name carries a
// domain through its suffix; values converted by a units.* call carry the
// domain of the conversion's result.
var (
	dbSuffixes  = []string{"DB", "dB", "DBm", "dBm"}
	linSuffixes = []string{"Lin", "lin", "Linear", "Watts", "W"}
)

// flowDomainOf classifies an identifier (variable, field, constant or
// function name) by its unit suffix. Hz counts as linear too: a frequency
// or bandwidth is a linear quantity, so summing it with a dB value is as
// wrong as summing watts with dB.
//
// Per-unit rates are handled before plain suffixes: a density like DBmPerHz
// carries its numerator's domain (a PSD in dBm/Hz sums with dB offsets the
// same way dBm does), while a slope per dB (AMPMDegPerDB) is a plain rate
// with no domain — multiplying it by a dB depth is the intended use, not a
// dB×dB error.
func flowDomainOf(name string) Domain {
	if stem, ok := strings.CutSuffix(name, "PerHz"); ok {
		return flowDomainOf(stem)
	}
	if strings.HasSuffix(name, "PerDB") || strings.HasSuffix(name, "PerDBm") {
		return DomainNone
	}
	for _, s := range dbSuffixes {
		if strings.HasSuffix(name, s) {
			return DomainDB
		}
	}
	for _, s := range linSuffixes {
		if strings.HasSuffix(name, s) {
			return DomainLinear
		}
	}
	if strings.HasSuffix(name, "Hz") {
		return DomainLinear
	}
	return DomainNone
}

// FuncFact is the unit-domain summary of one function: the domain of each
// parameter (flattened signature order) and of the first result. DomainNone
// entries claim nothing.
type FuncFact struct {
	Params []Domain
	Result Domain
}

// empty reports whether the fact claims nothing at all.
func (f FuncFact) empty() bool {
	if f.Result.known() {
		return false
	}
	for _, d := range f.Params {
		if d.known() {
			return false
		}
	}
	return true
}

// FactStore accumulates cross-package facts during a Run. Packages are
// analyzed in dependency order, so by the time a pass inspects a call into
// another module package, the callee's facts are already published. Objects
// are shared between packages of one load (one *types.Func per function), so
// the store can key facts directly on them.
type FactStore struct {
	funcs map[*types.Func]FuncFact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{funcs: make(map[*types.Func]FuncFact)}
}

// SetFunc publishes the unit-domain fact for a function. Empty facts are
// dropped.
func (s *FactStore) SetFunc(fn *types.Func, fact FuncFact) {
	if fn == nil || fact.empty() {
		return
	}
	s.funcs[fn] = fact
}

// Func returns the published fact for a function, consulting the built-in
// internal/units table first: the units package is the root of the unit
// system, and its conversions define the domain seeds every other fact
// propagates from.
func (s *FactStore) Func(fn *types.Func) (FuncFact, bool) {
	if fn == nil {
		return FuncFact{}, false
	}
	if fn.Pkg() != nil && isUnitsPackage(fn.Pkg().Path()) {
		if fact, ok := unitsFuncFacts[fn.Name()]; ok {
			return fact, true
		}
	}
	fact, ok := s.funcs[fn]
	return fact, ok
}

// isUnitsPackage reports whether the path names the module's units package.
func isUnitsPackage(path string) bool {
	return path == "internal/units" || strings.HasSuffix(path, "/internal/units")
}

// unitsFuncFacts seeds the dataflow with the ground-truth signatures of
// internal/units: these are the conversions between the two domains, so both
// their parameter and result domains are known exactly (name-suffix
// inference would misread several of them, e.g. DBToVoltageGain returns a
// linear amplitude ratio with no suffix).
var unitsFuncFacts = map[string]FuncFact{
	"DBToLinear":        {Params: []Domain{DomainDB}, Result: DomainLinear},
	"LinearToDB":        {Params: []Domain{DomainLinear}, Result: DomainDB},
	"DBToVoltageGain":   {Params: []Domain{DomainDB}, Result: DomainLinear},
	"VoltageGainToDB":   {Params: []Domain{DomainLinear}, Result: DomainDB},
	"DBmToWatts":        {Params: []Domain{DomainDB}, Result: DomainLinear},
	"WattsToDBm":        {Params: []Domain{DomainLinear}, Result: DomainDB},
	"DBmToAmplitude":    {Params: []Domain{DomainDB}, Result: DomainLinear},
	"ThermalNoisePower": {Params: []Domain{DomainLinear}, Result: DomainLinear},
	"ThermalNoiseDBm":   {Params: []Domain{DomainLinear}, Result: DomainDB},
	"MeanPower":         {Params: []Domain{DomainNone}, Result: DomainLinear},
	"PeakPower":         {Params: []Domain{DomainNone}, Result: DomainLinear},
	"PAPRdB":            {Params: []Domain{DomainNone}, Result: DomainDB},
	"SetPowerDBm":       {Params: []Domain{DomainNone, DomainDB}, Result: DomainLinear},
	"Scale":             {Params: []Domain{DomainNone, DomainLinear}},
}
