package kernels

import "math"

// Co-simulation circuit recurrence. The analog front end steps its circuit
// once per solver sample: the LNA's clipped cubic on the RF drive, the
// first conversion, the DC block, the quadrature conversion and the
// channel-select Chebyshev on both rails, then decimation to the input
// rate. Every stage but the LNA carries state from sample to sample, so the
// block is one long dependency chain with nothing to vectorize across
// samples. What does vectorize is the two rails: the Chebyshev's I and Q
// copies have identical coefficients, so the SIMD tier packs the rails into
// one 128-bit vector (lane 0 = I, lane 1 = Q) and keeps the whole recurrence
// state in registers for the block.

// CTSection is one trapezoidal biquad section of the channel-select filter,
// the update of analog.CTBiquad.Step with its coefficients duplicated per
// rail (index 0 = I, 1 = Q) so each rail's vector lane reads its own copy.
// X1, X2 and U are the section's state: the two integrator states and the
// previous input.
type CTSection struct {
	H2, NA0, K22, M11, M12, M21, M22, C0, C1, D [2]float64
	X1, X2, U                                   [2]float64
}

// CTSolver holds the coefficients and the state of the circuit recurrence
// CTSolve runs. The coefficient fields are the hoisted per-step constants
// of the analog stages; the analog front end fills them once.
type CTSolver struct {
	// LNA: y = G*v + A3*v*v*v clipped to [NClip, Clip], with NClip = -Clip
	// and Clip >= 0 (or NaN). When a noise plane is given, its draws are
	// scaled by NSig and added to v first.
	G, A3, Clip, NClip, NSig float64
	// DC block (when HPF): analog.CTFirstOrder.Step on the real IF, state
	// HX, HU.
	HK, HH2, HDen, HC, HD float64
	HX, HU                float64
	// Quadrature conversion of the DC block's output v: with m = v*Sqrt2,
	// rail l is m*lo*IQMul[l] + IQAdd[l], lo being the block's c2 (I) or
	// msk (Q) sample. The front end's i = m*c2 + dc and q = m*msk*qGain are
	// IQMul = {1, qGain} and IQAdd = {dc, -0}: multiplying by 1 and adding
	// -0 change no bit of any value.
	IQMul, IQAdd [2]float64
	// Channel-select Chebyshev (when LPF): passband gain, the biquad
	// sections in order, and (when FO) the real-pole first-order section
	// last, state FX, FU.
	Gain                  [2]float64
	Sec                   []CTSection
	FK, FH2, FDen, FC, FD [2]float64
	FX, FU                [2]float64
	// OutGain scales the rails at the output; Decim is the decimation
	// factor and Phase the current step's position in it (0 = emit).
	OutGain      [2]float64
	Decim, Phase int
	HPF, LPF, FO bool
}

// Reset clears the recurrence state: the DC block, every section, the
// real-pole section and the decimation phase.
func (p *CTSolver) Reset() {
	p.HX, p.HU = 0, 0
	for s := range p.Sec {
		q := &p.Sec[s]
		q.X1, q.X2, q.U = [2]float64{}, [2]float64{}, [2]float64{}
	}
	p.FX, p.FU = [2]float64{}, [2]float64{}
	p.Phase = 0
}

// Outputs returns how many output samples a block of n steps emits from
// the current phase: the steps that fall on decimation phase 0.
func (p *CTSolver) Outputs(n int) int {
	first := (p.Decim - p.Phase) % p.Decim
	if first >= n {
		return 0
	}
	return (n - first + p.Decim - 1) / p.Decim
}

// CTSolve steps the circuit over one drive block of len(v) solver samples:
// v is the RF drive, c1 the first LO's cosine, c2 and msk the second LO's I
// and Q rails, and noise either empty (a noiseless LNA) or the LNA's
// standard-normal draws, one per sample; v is overwritten with the first
// conversion's output. It writes the decimated outputs,
// complex(I, Q), to out from out[0] and returns their count, p.Outputs
// of the block; out must have room for them. The state in p carries over to
// the next block. Bit-identical on either dispatch tier to stepping the
// analog stages sample by sample.
//
//lint:hotpath
func CTSolve(out []complex128, v, c1, c2, msk, noise []float64, p *CTSolver) int {
	n := len(v)
	c1, c2, msk = c1[:n], c2[:n], msk[:n]
	if len(noise) != 0 {
		noise = noise[:n]
	}
	out = out[:p.Outputs(n)]
	if useSIMD {
		return ctSolveSIMD(out, v, c1, c2, msk, noise, p)
	}
	return ctSolveGo(out, v, c1, c2, msk, noise, p)
}

// ctSolveGo is the pure-Go tier of CTSolve and the twin of ctSolveAsm: the
// analog stages' Step updates written out per sample. The memoryless LNA
// and first conversion run first, over the whole block, into v; then the
// stateful stages run per sample, the two rails of the quadrature
// conversion onward side by side (they share no state). ctSolveAsm runs the
// first pass four samples per vector and the two rails as the two lanes of
// one vector, in the same operation order.
//
//lint:hotpath
func ctSolveGo(out []complex128, v, c1, c2, msk, noise []float64, p *CTSolver) int {
	g, a3, clip, nclip, nsig := p.G, p.A3, p.Clip, p.NClip, p.NSig
	for k, x := range v {
		if len(noise) != 0 {
			x += noise[k] * nsig
		}
		y := g*x + a3*x*x*x
		if y > clip {
			y = clip
		} else if y < nclip {
			y = nclip
		}
		v[k] = y * (2 * c1[k])
	}
	sec := p.Sec
	hpf, lpf, fo := p.HPF, p.LPF, p.FO
	hk, hh2, hden, hc, hd := p.HK, p.HH2, p.HDen, p.HC, p.HD
	hx, hu, fx, fu := p.HX, p.HU, p.FX, p.FU
	phase, decim := p.Phase, p.Decim
	j := 0
	for k, x := range v {
		if hpf {
			hx = (hk*hx + hh2*(hu+x)) / hden
			hu = x
			x = hc*hx + hd*x
		}
		m := x * math.Sqrt2
		i := m*c2[k]*p.IQMul[0] + p.IQAdd[0]
		q := m*msk[k]*p.IQMul[1] + p.IQAdd[1]
		if lpf {
			i *= p.Gain[0]
			q *= p.Gain[1]
			for s := range sec {
				// analog.CTBiquad.Step on each rail.
				c := &sec[s]
				r1 := c.X1[0] + c.H2[0]*c.X2[0]
				r2 := c.NA0[0]*c.X1[0] + c.K22[0]*c.X2[0] + c.H2[0]*(c.U[0]+i)
				c.X1[0] = c.M11[0]*r1 + c.M12[0]*r2
				c.X2[0] = c.M21[0]*r1 + c.M22[0]*r2
				c.U[0] = i
				i = c.C0[0]*c.X1[0] + c.C1[0]*c.X2[0] + c.D[0]*i
				r1 = c.X1[1] + c.H2[1]*c.X2[1]
				r2 = c.NA0[1]*c.X1[1] + c.K22[1]*c.X2[1] + c.H2[1]*(c.U[1]+q)
				c.X1[1] = c.M11[1]*r1 + c.M12[1]*r2
				c.X2[1] = c.M21[1]*r1 + c.M22[1]*r2
				c.U[1] = q
				q = c.C0[1]*c.X1[1] + c.C1[1]*c.X2[1] + c.D[1]*q
			}
			if fo {
				fx[0] = (p.FK[0]*fx[0] + p.FH2[0]*(fu[0]+i)) / p.FDen[0]
				fu[0] = i
				i = p.FC[0]*fx[0] + p.FD[0]*i
				fx[1] = (p.FK[1]*fx[1] + p.FH2[1]*(fu[1]+q)) / p.FDen[1]
				fu[1] = q
				q = p.FC[1]*fx[1] + p.FD[1]*q
			}
		}
		if phase == 0 {
			out[j] = complex(i*p.OutGain[0], q*p.OutGain[1])
			j++
		}
		phase++
		if phase == decim {
			phase = 0
		}
	}
	p.HX, p.HU, p.FX, p.FU, p.Phase = hx, hu, fx, fu, phase
	return j
}
