package modarith

import "math/bits"

// Pure-Go row kernels: the production `go` tier. They are (a) the only
// implementation under the `noasm` build tag and on architectures without an
// assembly tier, (b) the per-kernel fallback for tiers that implement a
// subset of the kernel table, and (c) the differential oracle every assembly
// tier is swept against.
//
// Every assembly implementation must be BIT-IDENTICAL to these on all
// inputs, including the lazy-domain representatives: the [0, 2q) kernels
// must compute the same Barrett quotient t (the same three partial products,
// dropping the same low-word carries), not merely a congruent residue.
// DESIGN.md §3.8.1 spells out the contract.

func vecMulBarrettGo(m Modulus, out, a, b []uint64) {
	q, twoQ, u0, u1 := m.Q, m.TwoQ, m.BRedHi, m.BRedLo
	_ = out[len(a)-1]
	_ = b[len(a)-1]
	for j := range a {
		xhi, xlo := bits.Mul64(a[j], b[j])
		t := xhi * u0
		hhi, _ := bits.Mul64(xlo, u0)
		t += hhi
		hhi, _ = bits.Mul64(xhi, u1)
		t += hhi
		r := xlo - t*q
		if r >= twoQ {
			r -= twoQ
		}
		if r >= q {
			r -= q
		}
		out[j] = r
	}
}

func vecMulAddBarrettGo(m Modulus, out, a, b []uint64) {
	q, twoQ, u0, u1 := m.Q, m.TwoQ, m.BRedHi, m.BRedLo
	_ = out[len(a)-1]
	_ = b[len(a)-1]
	for j := range a {
		xhi, xlo := bits.Mul64(a[j], b[j])
		t := xhi * u0
		hhi, _ := bits.Mul64(xlo, u0)
		t += hhi
		hhi, _ = bits.Mul64(xhi, u1)
		t += hhi
		r := xlo - t*q
		if r >= twoQ {
			r -= twoQ
		}
		if r >= q {
			r -= q
		}
		s := out[j] + r
		if s >= q {
			s -= q
		}
		out[j] = s
	}
}

func vecMulShoupGo(m Modulus, out, a []uint64, w, wShoup uint64) {
	q := m.Q
	_ = out[len(a)-1]
	for j := range a {
		hi, _ := bits.Mul64(a[j], wShoup)
		r := a[j]*w - hi*q
		if r >= q {
			r -= q
		}
		out[j] = r
	}
}

func vecMulShoupAddLazyGo(m Modulus, out, a []uint64, w, wShoup uint64) {
	q, twoQ := m.Q, m.TwoQ
	_ = out[len(a)-1]
	for j := range a {
		hi, _ := bits.Mul64(a[j], wShoup)
		s := out[j] + (a[j]*w - hi*q)
		if s >= twoQ {
			s -= twoQ
		}
		out[j] = s
	}
}

func vecSubMulShoupLazyGo(m Modulus, out, a, b []uint64, w, wShoup uint64) {
	q, twoQ := m.Q, m.TwoQ
	_ = out[len(a)-1]
	_ = b[len(a)-1]
	for j := range a {
		d := a[j] + twoQ - b[j]
		hi, _ := bits.Mul64(d, wShoup)
		r := d*w - hi*q
		if r >= q {
			r -= q
		}
		out[j] = r
	}
}

func vecRescaleStepGo(m Modulus, row, t []uint64, halfModQ, w, wShoup uint64) {
	q, u0 := m.Q, m.BRedHi
	fourQ := 4 * q
	_ = t[len(row)-1]
	for j := range row {
		th, _ := bits.Mul64(t[j], u0)
		tm := t[j] - th*q // ≡ t[j] (mod q), in [0, 4q)
		v := row[j] + halfModQ + fourQ - tm
		hi, _ := bits.Mul64(v, wShoup)
		r := v*w - hi*q
		if r >= q {
			r -= q
		}
		row[j] = r
	}
}

func vecAddGo(m Modulus, out, a, b []uint64) {
	q := m.Q
	out, b = out[:len(a)], b[:len(a)]
	for j := range a {
		s := a[j] + b[j]
		if s >= q {
			s -= q
		}
		out[j] = s
	}
}

func vecSubGo(m Modulus, out, a, b []uint64) {
	q := m.Q
	out, b = out[:len(a)], b[:len(a)]
	for j := range a {
		d := a[j] - b[j]
		if d > a[j] { // borrow
			d += q
		}
		out[j] = d
	}
}

func vecAddScalarGo(m Modulus, out, a []uint64, c uint64) {
	q := m.Q
	_ = out[len(a)-1]
	for j := range a {
		s := a[j] + c
		if s >= q {
			s -= q
		}
		out[j] = s
	}
}

func vecReduceTwoQGo(m Modulus, p []uint64) {
	q := m.Q
	for j := range p {
		if p[j] >= q {
			p[j] -= q
		}
	}
}

// vecFwdStageGo applies one forward (Cooley–Tukey) NTT stage to len(psi)
// consecutive twiddle blocks of a. Block i is a[2·i·span : 2·(i+1)·span];
// every pair (x, y) = (a[j], a[j+span]) of it gets the Harvey butterfly
//
//	x' = x̃ + w·y,  y' = x̃ - w·y + 2q,  x̃ = x - 2q·[x ≥ 2q],  w = psi[i]
//
// Inputs and outputs live in [0, 4q); w·y ∈ [0, 2q) by the MulShoupLazy
// bound for any y. span is a power of two (from span 4 on the loop is 4x
// unrolled for ILP). span == 1 is the transform's last stage and folds the
// exit reduction in: outputs in [0, 2q) when lazy, [0, q) otherwise.
func vecFwdStageGo(m Modulus, a, psi, psiShoup []uint64, span int, lazy bool) {
	q, twoQ := m.Q, m.TwoQ
	psiShoup = psiShoup[:len(psi)]
	switch {
	case span >= 4:
		for i, w := range psi {
			ws := psiShoup[i]
			x := a[2*i*span:][:span]
			y := a[2*i*span+span:][:span]
			for j := 0; j < len(x); j += 4 {
				xx := x[j : j+4 : j+4]
				yy := y[j : j+4 : j+4]
				u0, u1, u2, u3 := xx[0], xx[1], xx[2], xx[3]
				v0, v1, v2, v3 := yy[0], yy[1], yy[2], yy[3]
				if u0 >= twoQ {
					u0 -= twoQ
				}
				if u1 >= twoQ {
					u1 -= twoQ
				}
				if u2 >= twoQ {
					u2 -= twoQ
				}
				if u3 >= twoQ {
					u3 -= twoQ
				}
				h0, _ := bits.Mul64(v0, ws)
				h1, _ := bits.Mul64(v1, ws)
				h2, _ := bits.Mul64(v2, ws)
				h3, _ := bits.Mul64(v3, ws)
				v0 = v0*w - h0*q
				v1 = v1*w - h1*q
				v2 = v2*w - h2*q
				v3 = v3*w - h3*q
				xx[0], yy[0] = u0+v0, u0-v0+twoQ
				xx[1], yy[1] = u1+v1, u1-v1+twoQ
				xx[2], yy[2] = u2+v2, u2-v2+twoQ
				xx[3], yy[3] = u3+v3, u3-v3+twoQ
			}
		}
	case span == 2:
		for i, w := range psi {
			ws := psiShoup[i]
			xy := a[4*i : 4*i+4 : 4*i+4]
			u0, u1 := xy[0], xy[1]
			v0, v1 := xy[2], xy[3]
			if u0 >= twoQ {
				u0 -= twoQ
			}
			if u1 >= twoQ {
				u1 -= twoQ
			}
			h0, _ := bits.Mul64(v0, ws)
			h1, _ := bits.Mul64(v1, ws)
			v0 = v0*w - h0*q
			v1 = v1*w - h1*q
			xy[0], xy[2] = u0+v0, u0-v0+twoQ
			xy[1], xy[3] = u1+v1, u1-v1+twoQ
		}
	default: // span == 1: final stage, reduce on the way out
		for i, w := range psi {
			ws := psiShoup[i]
			xy := a[2*i : 2*i+2 : 2*i+2]
			u, v := xy[0], xy[1]
			if u >= twoQ {
				u -= twoQ
			}
			h, _ := bits.Mul64(v, ws)
			v = v*w - h*q
			s0, s1 := u+v, u-v+twoQ
			if s0 >= twoQ {
				s0 -= twoQ
			}
			if s1 >= twoQ {
				s1 -= twoQ
			}
			if !lazy {
				if s0 >= q {
					s0 -= q
				}
				if s1 >= q {
					s1 -= q
				}
			}
			xy[0], xy[1] = s0, s1
		}
	}
}

// vecInvStageGo applies one inverse (Gentleman–Sande) NTT stage over the
// same block layout as vecFwdStageGo:
//
//	x' = (x + y) - 2q·[x+y ≥ 2q],  y' = (x - y + 2q)·w  (MulShoupLazy)
//
// with block i's twiddle read from the forward block mirrored and negated:
// w = q − psi[len(psi)−1−i], companion ^psiShoup[len(psi)−1−i]
// (VecInvStage). Inputs and outputs live in [0, 2q) at every span; the last
// inverse stage is vecInvFinalGo.
func vecInvStageGo(m Modulus, a, psi, psiShoup []uint64, span int) {
	q, twoQ := m.Q, m.TwoQ
	last := len(psi) - 1
	psiShoup = psiShoup[:len(psi)]
	switch {
	case span >= 4:
		for i := range psi {
			w, ws := q-psi[last-i], ^psiShoup[last-i]
			x := a[2*i*span:][:span]
			y := a[2*i*span+span:][:span]
			for j := 0; j < len(x); j += 4 {
				xx := x[j : j+4 : j+4]
				yy := y[j : j+4 : j+4]
				u0, u1, u2, u3 := xx[0], xx[1], xx[2], xx[3]
				v0, v1, v2, v3 := yy[0], yy[1], yy[2], yy[3]
				s0, s1, s2, s3 := u0+v0, u1+v1, u2+v2, u3+v3
				if s0 >= twoQ {
					s0 -= twoQ
				}
				if s1 >= twoQ {
					s1 -= twoQ
				}
				if s2 >= twoQ {
					s2 -= twoQ
				}
				if s3 >= twoQ {
					s3 -= twoQ
				}
				d0, d1, d2, d3 := u0-v0+twoQ, u1-v1+twoQ, u2-v2+twoQ, u3-v3+twoQ
				h0, _ := bits.Mul64(d0, ws)
				h1, _ := bits.Mul64(d1, ws)
				h2, _ := bits.Mul64(d2, ws)
				h3, _ := bits.Mul64(d3, ws)
				xx[0], yy[0] = s0, d0*w-h0*q
				xx[1], yy[1] = s1, d1*w-h1*q
				xx[2], yy[2] = s2, d2*w-h2*q
				xx[3], yy[3] = s3, d3*w-h3*q
			}
		}
	case span == 2:
		for i := range psi {
			w, ws := q-psi[last-i], ^psiShoup[last-i]
			xy := a[4*i : 4*i+4 : 4*i+4]
			u0, u1 := xy[0], xy[1]
			v0, v1 := xy[2], xy[3]
			s0, s1 := u0+v0, u1+v1
			if s0 >= twoQ {
				s0 -= twoQ
			}
			if s1 >= twoQ {
				s1 -= twoQ
			}
			d0, d1 := u0-v0+twoQ, u1-v1+twoQ
			h0, _ := bits.Mul64(d0, ws)
			h1, _ := bits.Mul64(d1, ws)
			xy[0], xy[2] = s0, d0*w-h0*q
			xy[1], xy[3] = s1, d1*w-h1*q
		}
	default: // span == 1: adjacent pairs
		for i := range psi {
			w, ws := q-psi[last-i], ^psiShoup[last-i]
			xy := a[2*i : 2*i+2 : 2*i+2]
			u, v := xy[0], xy[1]
			s := u + v
			if s >= twoQ {
				s -= twoQ
			}
			d := u - v + twoQ
			h, _ := bits.Mul64(d, ws)
			xy[0], xy[1] = s, d*w-h*q
		}
	}
}

// vecInvFinalGo runs the last inverse stage over the paired halves x and y
// of the single remaining block, with the 1/N scaling fused into both
// butterfly outputs: x' = (x+y)·N^{-1}, y' = (x-y+2q)·(w·N^{-1}), where the
// caller premultiplied N^{-1} into w. Both Shoup products tolerate the
// unreduced [0, 4q) operands, so no pre-reduction is needed; outputs land in
// [0, 2q), and exact mode adds one conditional subtraction per output.
func vecInvFinalGo(m Modulus, x, y []uint64, nInv, nInvShoup, w, ws uint64, lazy bool) {
	q, twoQ := m.Q, m.TwoQ
	y = y[:len(x)]
	for j := range x {
		u, v := x[j], y[j]
		s := u + v // [0, 4q): MulShoupLazy absorbs it
		h, _ := bits.Mul64(s, nInvShoup)
		r0 := s*nInv - h*q
		d := u - v + twoQ
		h, _ = bits.Mul64(d, ws)
		r1 := d*w - h*q
		if !lazy {
			if r0 >= q {
				r0 -= q
			}
			if r1 >= q {
				r1 -= q
			}
		}
		x[j], y[j] = r0, r1
	}
}
