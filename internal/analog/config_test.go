package analog

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"wlansim/internal/rf"
)

// TestDefaultFrontEndConfigPinned pins the co-simulation defaults field for
// field to the values the co-sim goldens were recorded with, whatever the
// defaults are derived from.
func TestDefaultFrontEndConfigPinned(t *testing.T) {
	want := FrontEndConfig{
		InputRateHz:           20e6,
		SolverOversample:      32,
		LNAGainDB:             18,
		LNACompressionDBm:     -10,
		LNANoiseFigureDB:      2.5,
		DCBlockCornerHz:       150e3,
		LOLinewidthHz:         50,
		ChannelFilterOrder:    5,
		ChannelFilterEdgeHz:   9.5e6,
		ChannelFilterRippleDB: 0.5,
		OutputGainDB:          15,
		Seed:                  1,
	}
	if got := DefaultFrontEndConfig(); got != want {
		t.Errorf("DefaultFrontEndConfig() = %+v, want %+v", got, want)
	}
}

// cloneReceiverConfig copies rc deeply enough to perturb: the LO configs
// are the only pointers.
func cloneReceiverConfig(rc rf.ReceiverConfig) rf.ReceiverConfig {
	for _, m := range []*rf.MixerConfig{&rc.Mixer1, &rc.Mixer2} {
		if m.LO != nil {
			lo := *m.LO
			m.LO = &lo
		}
	}
	return rc
}

// leafPaths lists the dotted paths of every non-struct field of t, looking
// through struct pointers.
func leafPaths(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, leafPaths(ft, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// fieldAt returns the settable field at path inside v.
func fieldAt(v reflect.Value, path string) reflect.Value {
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.FieldByName(name)
	}
	return v
}

// perturbed returns copies of rc with the field at path moved to each of a
// few nearby values. The two LO linewidths move together: the circuit has
// one linewidth, and differing ones are an error of their own.
func perturbed(rc rf.ReceiverConfig, path string) []rf.ReceiverConfig {
	linked := map[string]string{
		"Mixer1.LO.LinewidthHz": "Mixer2.LO.LinewidthHz",
		"Mixer2.LO.LinewidthHz": "Mixer1.LO.LinewidthHz",
	}
	var out []rf.ReceiverConfig
	for step := -1; step <= 1; step += 2 {
		c := cloneReceiverConfig(rc)
		v := reflect.ValueOf(&c).Elem()
		for _, p := range []string{path, linked[path]} {
			if p == "" {
				continue
			}
			f := fieldAt(v, p)
			switch f.Kind() {
			case reflect.Float64:
				f.SetFloat(f.Float() + float64(step))
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + int64(step))
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.String:
				f.SetString(f.String() + "'")
			default:
				panic("perturbed: unhandled kind " + f.Kind().String() + " at " + path)
			}
		}
		out = append(out, c)
	}
	return out
}

// listedDifference returns the reason differences gives for path, or for a
// struct containing it, and whether it lists it.
func listedDifference(path string) (string, bool) {
	for _, d := range differences {
		for _, f := range d.fields {
			if path == f || strings.HasPrefix(path, f+".") {
				return d.why, true
			}
		}
	}
	return "", false
}

// TestConfigForCoversReceiverConfig perturbs every leaf field of
// rf.ReceiverConfig, on the default line-up and on one whose LNA is set by
// its IIP3, and requires each field either to move ConfigFor's result (or
// its error) or to be listed in differences, never both. A field added to
// the line-up, or a mapping line deleted, fails it until the field is
// mapped or named as a modelling difference. EXPERIMENTS.md must name every
// listed field too.
func TestConfigForCoversReceiverConfig(t *testing.T) {
	byIIP3 := rf.DefaultReceiverConfig(1)
	byIIP3.LNA.UseCompression = false
	byIIP3.LNA.IIP3DBm = 0
	bases := []rf.ReceiverConfig{rf.DefaultReceiverConfig(1), byIIP3}

	paths := leafPaths(reflect.TypeOf(rf.ReceiverConfig{}), "")
	for _, path := range paths {
		responds := false
		for _, base := range bases {
			want, wantErr := ConfigFor(base)
			if wantErr != nil {
				t.Fatalf("base line-up does not map: %v", wantErr)
			}
			for _, c := range perturbed(base, path) {
				got, err := ConfigFor(c)
				if err != nil || got != want {
					responds = true
				}
			}
		}
		why, listed := listedDifference(path)
		switch {
		case responds && listed:
			t.Errorf("%s is mapped by ConfigFor but listed in differences: %s", path, why)
		case !responds && !listed:
			t.Errorf("%s is neither mapped by ConfigFor nor listed in differences", path)
		}
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range differences {
		for _, f := range d.fields {
			known := false
			for _, p := range paths {
				known = known || p == f || strings.HasPrefix(p, f+".")
			}
			if !known {
				t.Errorf("differences lists %s, which is no rf.ReceiverConfig field", f)
			}
			if !strings.Contains(string(doc), "`"+f+"`") {
				t.Errorf("EXPERIMENTS.md does not list the modelling difference `%s`", f)
			}
		}
	}
}

// TestConfigForRejectsUnmappable pins the two line-ups the circuit cannot
// model, and the IIP3 route to the compression point.
func TestConfigForRejectsUnmappable(t *testing.T) {
	linear := rf.DefaultReceiverConfig(1)
	linear.LNA.Model = rf.Linear
	if _, err := ConfigFor(linear); err == nil {
		t.Error("mapped a linear LNA")
	}
	skewed := cloneReceiverConfig(rf.DefaultReceiverConfig(1))
	skewed.Mixer2.LO.LinewidthHz = 100
	if _, err := ConfigFor(skewed); err == nil {
		t.Error("mapped LOs of different linewidths")
	}
	ideal := rf.DefaultReceiverConfig(1)
	ideal.Mixer1.LO, ideal.Mixer2.LO = nil, nil
	cfg, err := ConfigFor(ideal)
	if err != nil || cfg.LOLinewidthHz != 0 {
		t.Errorf("ideal LOs map to linewidth %g, err %v; want 0", cfg.LOLinewidthHz, err)
	}
	byIIP3 := rf.DefaultReceiverConfig(1)
	byIIP3.LNA.UseCompression = false
	byIIP3.LNA.IIP3DBm = 3
	cfg, err = ConfigFor(byIIP3)
	if err != nil || math.Abs(cfg.LNACompressionDBm-rf.P1dBFromIIP3(3)) > 1e-12 {
		t.Errorf("IIP3 3 dBm maps to P1dB %g, err %v; want %g", cfg.LNACompressionDBm, err, rf.P1dBFromIIP3(3))
	}
}
