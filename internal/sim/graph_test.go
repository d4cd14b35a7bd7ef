package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wlansim/internal/measure"
)

// sliceSource emits the slice in frameLen chunks then reports done.
func sliceSource(data []complex128) SourceFunc {
	pos := 0
	return func(frameLen int) ([]complex128, bool) {
		if pos >= len(data) {
			return nil, true
		}
		end := pos + frameLen
		if end > len(data) {
			end = len(data)
		}
		f := data[pos:end]
		pos = end
		return f, false
	}
}

func gainBlock(g complex128) ProcessFunc {
	return func(in [][]complex128) ([][]complex128, error) {
		out := make([]complex128, len(in[0]))
		for i, v := range in[0] {
			out[i] = v * g
		}
		return [][]complex128{out}, nil
	}
}

func adderBlock() ProcessFunc {
	return func(in [][]complex128) ([][]complex128, error) {
		if len(in[0]) != len(in[1]) {
			return nil, fmt.Errorf("frame length mismatch %d vs %d", len(in[0]), len(in[1]))
		}
		out := make([]complex128, len(in[0]))
		for i := range out {
			out[i] = in[0][i] + in[1][i]
		}
		return [][]complex128{out}, nil
	}
}

func buildChain(t *testing.T, data []complex128) (*Graph, *[]complex128) {
	t.Helper()
	g := NewGraph()
	if err := g.AddSource("src", sliceSource(data)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBlock("gain", 1, 1, gainBlock(2)); err != nil {
		t.Fatal(err)
	}
	var collected []complex128
	if err := g.AddSink("sink", func(f []complex128) error {
		collected = append(collected, f...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", 0, "gain", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("gain", 0, "sink", 0); err != nil {
		t.Fatal(err)
	}
	return g, &collected
}

func TestGraphLinearChain(t *testing.T) {
	data := []complex128{1, 2, 3, 4, 5, 6, 7}
	g, collected := buildChain(t, data)
	steps, err := g.Run(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 { // 3+3+1 samples
		t.Errorf("steps %d, want 3", steps)
	}
	if len(*collected) != len(data) {
		t.Fatalf("collected %d samples", len(*collected))
	}
	for i, v := range data {
		if (*collected)[i] != v*2 {
			t.Errorf("sample %d = %v, want %v", i, (*collected)[i], v*2)
		}
	}
}

func TestGraphFanOutAndAdder(t *testing.T) {
	g := NewGraph()
	data := []complex128{1, 2, 3, 4}
	if err := g.AddSource("src", sliceSource(data)); err != nil {
		t.Fatal(err)
	}
	_ = g.AddBlock("g1", 1, 1, gainBlock(2))
	_ = g.AddBlock("g2", 1, 1, gainBlock(3))
	_ = g.AddBlock("add", 2, 1, adderBlock())
	var out []complex128
	_ = g.AddSink("sink", func(f []complex128) error { out = append(out, f...); return nil })
	for _, c := range [][4]interface{}{
		{"src", 0, "g1", 0}, {"src", 0, "g2", 0},
		{"g1", 0, "add", 0}, {"g2", 0, "add", 1},
		{"add", 0, "sink", 0},
	} {
		if err := g.Connect(c[0].(string), c[1].(int), c[2].(string), c[3].(int)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Run(4, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if out[i] != v*5 {
			t.Errorf("adder output %v, want %v", out[i], v*5)
		}
	}
}

func TestGraphProbes(t *testing.T) {
	data := []complex128{1, 2, 3}
	g, _ := buildChain(t, data)
	p, err := g.AddProbe("after-gain", "gain", 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := g.AddProbe("disabled", "src", 0)
	if err != nil {
		t.Fatal(err)
	}
	q.Enabled = false
	if _, err := g.Run(2, 0); err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != 3 || p.Samples[0] != 2 {
		t.Errorf("probe samples %v", p.Samples)
	}
	if len(q.Samples) != 0 {
		t.Error("disabled probe recorded samples")
	}
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph()
	if err := g.AddSource("s", nil); err == nil {
		t.Error("accepted nil source")
	}
	if err := g.AddBlock("b", 1, 1, nil); err == nil {
		t.Error("accepted nil block func")
	}
	if err := g.AddBlock("b", 0, 1, gainBlock(1)); err == nil {
		t.Error("accepted zero inputs")
	}
	_ = g.AddSource("src", sliceSource([]complex128{1}))
	if err := g.AddSource("src", sliceSource(nil)); err == nil {
		t.Error("accepted duplicate name")
	}
	if err := g.Connect("nope", 0, "src", 0); err == nil {
		t.Error("accepted unknown source block")
	}
	if err := g.Connect("src", 5, "src", 0); err == nil {
		t.Error("accepted bad port")
	}
	_ = g.AddBlock("sink2", 1, 0, func(in [][]complex128) ([][]complex128, error) { return nil, nil })
	if err := g.Connect("src", 0, "sink2", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("src", 0, "sink2", 0); err == nil {
		t.Error("accepted double connection to one input")
	}
	if _, err := g.AddProbe("p", "missing", 0); err == nil {
		t.Error("accepted probe on unknown block")
	}
}

func TestGraphUnconnectedInputFails(t *testing.T) {
	g := NewGraph()
	_ = g.AddSource("src", sliceSource([]complex128{1}))
	_ = g.AddBlock("add", 2, 1, adderBlock())
	_ = g.Connect("src", 0, "add", 0)
	if _, err := g.Run(1, 0); err == nil {
		t.Error("ran with an unconnected input")
	}
}

func TestGraphCycleDetection(t *testing.T) {
	g := NewGraph()
	_ = g.AddBlock("a", 1, 1, gainBlock(1))
	_ = g.AddBlock("b", 1, 1, gainBlock(1))
	_ = g.Connect("a", 0, "b", 0)
	_ = g.Connect("b", 0, "a", 0)
	if _, err := g.Run(1, 0); err == nil {
		t.Error("delay-free loop not rejected")
	}
}

func TestGraphScheduleOrder(t *testing.T) {
	data := []complex128{1}
	g, _ := buildChain(t, data)
	names, err := g.BlockNames()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range names {
		pos[n] = i
	}
	if !(pos["src"] < pos["gain"] && pos["gain"] < pos["sink"]) {
		t.Errorf("schedule order %v", names)
	}
}

func TestGraphMaxSteps(t *testing.T) {
	g := NewGraph()
	_ = g.AddSource("forever", func(frameLen int) ([]complex128, bool) {
		return make([]complex128, frameLen), false
	})
	steps, err := g.Run(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Errorf("steps %d, want 5", steps)
	}
}

func TestGraphBlockErrorPropagates(t *testing.T) {
	g := NewGraph()
	_ = g.AddSource("src", sliceSource([]complex128{1}))
	_ = g.AddBlock("bad", 1, 1, func(in [][]complex128) ([][]complex128, error) {
		return nil, fmt.Errorf("boom")
	})
	_ = g.Connect("src", 0, "bad", 0)
	if _, err := g.Run(1, 0); err == nil {
		t.Error("block error not propagated")
	}
}

func TestGraphOutputArityChecked(t *testing.T) {
	g := NewGraph()
	_ = g.AddSource("src", sliceSource([]complex128{1}))
	_ = g.AddBlock("liar", 1, 2, func(in [][]complex128) ([][]complex128, error) {
		return [][]complex128{in[0]}, nil // declared 2, returns 1
	})
	_ = g.Connect("src", 0, "liar", 0)
	if _, err := g.Run(1, 0); err == nil {
		t.Error("wrong output arity not rejected")
	}
}

func TestSweepExecute(t *testing.T) {
	s := &Sweep{
		Name:   "parabola",
		XLabel: "x", YLabel: "y",
		Values: []float64{-2, -1, 0, 1, 2},
		RunPointBatch: pointwise(func(v float64) (measure.Point, error) {
			return measure.Point{Y: v * v}, nil
		}),
	}
	var calls int
	s.OnPointDone = func(measure.Point) { calls++ }
	series, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("OnPointDone calls %d", calls)
	}
	if min := series.Min(); min.X != 0 || min.Y != 0 {
		t.Errorf("min %+v", min)
	}
	if y, _ := series.YAt(2); y != 4 {
		t.Errorf("y(2) = %v", y)
	}
}

func TestSweepValidation(t *testing.T) {
	s := &Sweep{Name: "x", Values: []float64{1}}
	if _, err := s.Execute(); err == nil {
		t.Error("accepted nil RunPointBatch")
	}
	s.RunPointBatch = pointwise(func(float64) (measure.Point, error) { return measure.Point{}, nil })
	s.Values = nil
	if _, err := s.Execute(); err == nil {
		t.Error("accepted empty values")
	}
	s.Values = []float64{1}
	s.RunPointBatch = pointwise(func(float64) (measure.Point, error) { return measure.Point{}, fmt.Errorf("fail") })
	if _, err := s.Execute(); err == nil {
		t.Error("point error not propagated")
	}
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-15 {
			t.Fatalf("Linspace = %v", v)
		}
	}
	if Linspace(0, 1, 0) != nil {
		t.Error("n=0 should be nil")
	}
	if v := Linspace(3, 9, 1); len(v) != 1 || v[0] != 3 {
		t.Errorf("n=1 = %v", v)
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := buildChain(t, []complex128{1})
	var buf strings.Builder
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", `"src"`, `"gain"`, `"sink"`, `"src" -> "gain"`, `"gain" -> "sink"`, "ellipse", "doubleoctagon"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Multi-port edges carry port labels.
	g2 := NewGraph()
	_ = g2.AddSource("s", sliceSource([]complex128{1}))
	_ = g2.AddBlock("add", 2, 1, adderBlock())
	_ = g2.Connect("s", 0, "add", 0)
	_ = g2.Connect("s", 0, "add", 1)
	_ = g2.AddSink("k", func([]complex128) error { return nil })
	_ = g2.Connect("add", 0, "k", 0)
	buf.Reset()
	if err := g2.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "label=") {
		t.Errorf("multi-port DOT missing port labels:\n%s", buf.String())
	}
	// Invalid graphs are rejected.
	bad := NewGraph()
	_ = bad.AddBlock("orphan", 1, 1, gainBlock(1))
	if err := bad.WriteDOT(&buf); err == nil {
		t.Error("accepted a graph with unconnected inputs")
	}
}
