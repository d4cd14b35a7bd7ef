package kernels

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The CTSolve suite compares the two tiers with strict Float64bits, NaN
// included. That holds because every NaN in these runs has one bit
// pattern: inputs carry only ctNaN, the NaN x86 arithmetic produces, and
// the recurrence only propagates NaNs (it negates none: NClip is set
// apart from the data), so whichever NaN operand an instruction passes on,
// the bits are the same.

// ctNaN is the default NaN of x86 arithmetic (Inf-Inf, 0*Inf).
var ctNaN = math.Float64frombits(0xfff8000000000000)

// ctTestSolver builds a solver with nsec biquad sections and the given
// stages, every coefficient drawn from next (the I and Q lanes get
// different values, so a swapped lane shows).
func ctTestSolver(next func() float64, nsec int, hpf, lpf, fo bool, decim, phase int) *CTSolver {
	pr := func() [2]float64 { return [2]float64{next(), next()} }
	clip := math.Abs(next())
	p := &CTSolver{
		G: next(), A3: next(), Clip: clip, NClip: -clip, NSig: next(),
		HK: next(), HH2: next(), HDen: next(), HC: next(), HD: next(), HX: next(), HU: next(),
		IQMul: pr(), IQAdd: pr(), Gain: pr(),
		FK: pr(), FH2: pr(), FDen: pr(), FC: pr(), FD: pr(), FX: pr(), FU: pr(),
		OutGain: pr(), Decim: decim, Phase: phase, HPF: hpf, LPF: lpf, FO: fo,
	}
	p.Sec = make([]CTSection, nsec)
	for s := range p.Sec {
		p.Sec[s] = CTSection{
			H2: pr(), NA0: pr(), K22: pr(), M11: pr(), M12: pr(), M21: pr(), M22: pr(),
			C0: pr(), C1: pr(), D: pr(), X1: pr(), X2: pr(), U: pr(),
		}
	}
	return p
}

// clone copies the solver, sections included.
func (p *CTSolver) clone() *CTSolver {
	q := *p
	q.Sec = append([]CTSection(nil), p.Sec...)
	return &q
}

// ctSolveBlock is one block of drive planes.
type ctSolveBlock struct{ v, c1, c2, msk, noise []float64 }

func (b ctSolveBlock) clone() ctSolveBlock {
	cp := func(x []float64) []float64 {
		if x == nil {
			return nil
		}
		return append([]float64(nil), x...)
	}
	return ctSolveBlock{cp(b.v), cp(b.c1), cp(b.c2), cp(b.msk), cp(b.noise)}
}

// ctSolveRun runs the blocks through solve back to back on p and returns
// the outputs; the blocks' v planes are overwritten as CTSolve does.
func ctSolveRun(t *testing.T, solve func(out []complex128, v, c1, c2, msk, noise []float64, p *CTSolver) int,
	p *CTSolver, blocks []ctSolveBlock) []complex128 {
	t.Helper()
	var all []complex128
	for _, b := range blocks {
		want := p.Outputs(len(b.v))
		out := make([]complex128, want)
		if got := solve(out, b.v, b.c1, b.c2, b.msk, b.noise, p); got != want {
			t.Fatalf("block of %d steps: %d outputs, Outputs says %d", len(b.v), got, want)
		}
		all = append(all, out...)
	}
	return all
}

// ctSolveCompare requires the two runs' outputs, solver states and
// overwritten drive planes to agree bit for bit.
func ctSolveCompare(t *testing.T, what string, got, want []complex128, pg, pw *CTSolver, bg, bw []ctSolveBlock) {
	t.Helper()
	strict := func(name string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %x, want %x", what, name, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range got {
		strict("out", []float64{real(got[i]), imag(got[i])}, []float64{real(want[i]), imag(want[i])})
	}
	strict("state", []float64{pg.HX, pg.HU, pg.FX[0], pg.FX[1], pg.FU[0], pg.FU[1]},
		[]float64{pw.HX, pw.HU, pw.FX[0], pw.FX[1], pw.FU[0], pw.FU[1]})
	for s := range pg.Sec {
		a, b := pg.Sec[s], pw.Sec[s]
		strict("section state", []float64{a.X1[0], a.X1[1], a.X2[0], a.X2[1], a.U[0], a.U[1]},
			[]float64{b.X1[0], b.X1[1], b.X2[0], b.X2[1], b.U[0], b.U[1]})
	}
	if pg.Phase != pw.Phase {
		t.Fatalf("%s: phase %d, want %d", what, pg.Phase, pw.Phase)
	}
	for k := range bg {
		strict("v", bg[k].v, bw[k].v)
	}
}

// ctDrive draws a block of n steps: Gaussian drive with huge values (the
// cubic overflows to ±Inf and clips), ±0 and NaN mixed in when adversarial,
// LO planes on the unit interval and an optional noise plane.
func ctDrive(rng *rand.Rand, n int, noise, adversarial bool) ctSolveBlock {
	plane := func(scale float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * scale
		}
		return x
	}
	b := ctSolveBlock{v: plane(1), c1: plane(0.7), c2: plane(0.7), msk: plane(0.7)}
	if noise {
		b.noise = plane(1)
	}
	if adversarial {
		for i := range b.v {
			switch rng.Intn(16) {
			case 0:
				b.v[i] = 1e200
			case 1:
				b.v[i] = math.Copysign(0, -1)
			case 2:
				b.v[i] = 0
			case 3:
				b.v[i] = ctNaN
			}
		}
	}
	return b
}

// TestCTSolveMatchesGoBothTiers runs the exported CTSolve under each
// dispatch tier against the Go twin over every stage combination, section
// counts 0-5 (the register-resident first three and the memory-state
// rest), decimation factors and phases, and block lengths from 0 up,
// several blocks back to back so the state carries over.
func TestCTSolveMatchesGoBothTiers(t *testing.T) {
	prev := DispatchName() != "purego"
	defer SetDispatch(prev)
	rng := rand.New(rand.NewSource(61))
	next := func() float64 { return rng.Float64() - 0.5 }
	for _, simd := range []bool{true, false} {
		SetDispatch(simd)
		for nsec := 0; nsec <= 5; nsec++ {
			for flags := 0; flags < 16; flags++ {
				hpf, lpf, fo, noise := flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
				for _, decim := range []int{1, 3, 32} {
					p := ctTestSolver(next, nsec, hpf, lpf, fo, decim, rng.Intn(decim))
					var blocks []ctSolveBlock
					for _, n := range []int{0, 1, 7, 64, 301} {
						blocks = append(blocks, ctDrive(rng, n, noise, flags%3 == 0))
					}
					pw, bw := p.clone(), cloneBlocks(blocks)
					got := ctSolveRun(t, CTSolve, p, blocks)
					want := ctSolveRun(t, ctSolveGo, pw, bw)
					ctSolveCompare(t, DispatchName(), got, want, p, pw, blocks, bw)
				}
			}
		}
	}
}

func cloneBlocks(bs []ctSolveBlock) []ctSolveBlock {
	out := make([]ctSolveBlock, len(bs))
	for k, b := range bs {
		out[k] = b.clone()
	}
	return out
}

// FuzzCTSolve drives CTSolve under both dispatch tiers over fuzzer-chosen
// solver shapes (section count, stages, noise, decimation and phase, two
// block lengths) and raw float64 bit patterns for every coefficient, state
// and drive sample. NaN patterns are folded into ctNaN (see above); every
// other value, ±0, ±Inf and denormals included, goes in as drawn.
func FuzzCTSolve(f *testing.F) {
	seed := func(shape [6]byte, vals ...float64) []byte {
		b := append([]byte(nil), shape[:]...)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed([6]byte{2, 0xf, 32, 5, 40, 9}, 0.5, -0.25, 1, 0.125, 3, -2, 0.75, 1e-3, -1e-3, 7))
	f.Add(seed([6]byte{4, 0x7, 1, 0, 3, 0}, math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), 1e300, -1e-310))
	f.Add(seed([6]byte{0, 0x9, 3, 2, 17, 1}, 1, 1, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		nsec := int(data[0]) % 6
		flags := data[1]
		decim := int(data[2])%40 + 1
		phase := int(data[3]) % decim
		n1, n2 := int(data[4])%80, int(data[5])%80
		vals := fuzzFloats(data[6:], 512)
		if len(vals) == 0 {
			return
		}
		k := 0
		next := func() float64 {
			v := vals[k%len(vals)]
			k++
			if math.IsNaN(v) {
				return ctNaN
			}
			return v
		}
		noise := flags&8 != 0
		p := ctTestSolver(next, nsec, flags&1 != 0, flags&2 != 0, flags&4 != 0, decim, phase)
		var blocks []ctSolveBlock
		for _, n := range []int{n1, n2} {
			b := ctSolveBlock{v: make([]float64, n), c1: make([]float64, n), c2: make([]float64, n), msk: make([]float64, n)}
			if noise {
				b.noise = make([]float64, n)
			}
			for i := 0; i < n; i++ {
				b.v[i], b.c1[i], b.c2[i], b.msk[i] = next(), next(), next(), next()
				if noise {
					b.noise[i] = next()
				}
			}
			blocks = append(blocks, b)
		}
		prev := DispatchName() != "purego"
		defer SetDispatch(prev)
		SetDispatch(true)
		pg, bg := p.clone(), cloneBlocks(blocks)
		got := ctSolveRun(t, CTSolve, pg, bg)
		SetDispatch(false)
		pw, bw := p.clone(), cloneBlocks(blocks)
		want := ctSolveRun(t, CTSolve, pw, bw)
		ctSolveCompare(t, "simd vs purego", got, want, pg, pw, bg, bw)
	})
}
