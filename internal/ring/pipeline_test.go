package ring

import (
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/par"
	"github.com/anaheim-sim/anaheim/internal/rns"
)

// A chain executes the same row kernels, in the same per-limb order, as its
// stages run one Ring op at a time — the barriered composition, one Run and
// so one barrier per op. Every test here demands bit-identical agreement with
// it.

// nttLazy and subMulScalarsLazy run one lazy lane stage as its own chain, for
// the stage-at-a-time references (the Ring API has no lazy transform).
func nttLazy(r *Ring, p *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.NTTLazy(p) })
}

func subMulScalarsLazy(r *Ring, out, a, b *Poly, s []uint64, level int) {
	r.run(level, func(ln *Lane) { ln.SubMulByLimbScalarsLazy(out, a, b, s) })
}

// TestPipelineKeySwitchShapedChain runs the gadget-product-shaped chain (the
// forward NTTLazy of every "digit", then the one DotKeyLazy stage that fills
// both accumulators, the A side from key rows it expands tile by tile, ending
// in a reduction) and compares against the barriered MAC-per-term
// composition over the stored B rows and the A rows expanded whole — at
// every level, on both halves' row tags, at a degree below one expansion tile
// and at several, and on every kernel table. The dot stage reduces once where
// the MAC chain reduces per term, so the lazy representatives differ; the
// reduced residues may not. An accumulator flagged accumulate takes the
// product onto its live value; one that is not must be overwritten whatever
// (here: garbage) it held.
func TestPipelineKeySwitchShapedChain(t *testing.T) {
	t.Parallel()
	for _, k := range modarith.KernelTables() {
		for _, logN := range []int{6, 10} {
			keySwitchShapedChain(t, k, newTestRingAt(t, logN, 6, k, par.Workers()))
		}
	}
}

func keySwitchShapedChain(t *testing.T, tier modarith.Kernels, r *Ring) {
	s := testStream(19)
	key := modarith.NewStreamKey([32]byte{19})
	const digits = 3
	for level := 0; level <= r.MaxLevel(); level++ {
		for flags := 0; flags < 8; flags++ {
			accB, accA, half := flags&1 != 0, flags&2 != 0, flags>>2
			digQ := make([]*Poly, digits)
			keyB := make([]*Poly, digits)
			keyA := make([]*Poly, digits)
			for d := range digQ {
				digQ[d] = s.UniformPoly(r, level, false) // coeff domain, exact
				keyB[d] = s.UniformPoly(r, level, true)
				keyA[d] = keyRows(r, key, d, half, level)
			}
			live0, live1 := s.UniformPoly(r, level, true), s.UniformPoly(r, level, true)

			// Barriered reference.
			wantDig := make([]*Poly, digits)
			for d := range digQ {
				wantDig[d] = digQ[d].CopyNew()
				nttLazy(r, wantDig[d], level)
			}
			want0, want1 := r.NewPoly(level), r.NewPoly(level)
			want0.IsNTT, want1.IsNTT = true, true
			if accB {
				want0.Copy(live0)
			}
			if accA {
				want1.Copy(live1)
			}
			for d := range digQ {
				r.MulCoeffsAdd(want0, wantDig[d], keyB[d], level)
				r.MulCoeffsAdd(want1, wantDig[d], keyA[d], level)
			}
			r.ReduceLazy(want0, level)
			r.ReduceLazy(want1, level)

			// Pipelined: whole chain per limb, one barrier. An output not
			// accumulated onto starts as garbage.
			got0, got1 := live0.CopyNew(), live1.CopyNew()
			for _, g := range []struct {
				p   *Poly
				acc bool
			}{{got0, accB}, {got1, accA}} {
				for i := range g.p.Coeffs {
					for j := range g.p.Coeffs[i] {
						if !g.acc {
							g.p.Coeffs[i][j] = ^uint64(0)
						}
					}
				}
			}
			pl := GetPipeline()
			ln := pl.Lane(r, level)
			for d := range digQ {
				ln.NTTLazy(digQ[d])
			}
			ln.DotKeyLazy(got0, got1, digQ, keyB, key, half, accB, accA)
			ln.ReduceLazy(got0)
			ln.ReduceLazy(got1)
			pl.Run()
			pl.Release()

			if !got0.Equal(want0) || !got1.Equal(want1) {
				t.Fatalf("%v N=%d level %d accB=%v accA=%v half %d: pipelined gadget chain != barriered composition",
					tier, r.N, level, accB, accA, half)
			}
			for d := range digQ {
				if !digQ[d].IsNTT {
					t.Fatalf("level %d: pipeline did not apply the NTT domain flag", level)
				}
				if !digQ[d].Equal(wantDig[d]) {
					t.Fatalf("level %d digit %d: pipelined NTTLazy != barriered NTTLazy", level, d)
				}
			}
		}
	}
}

// TestPipelineModDownShapedChain covers the ModDown epilogue ops: Copy+INTT
// in one lane, NTTLazy+SubMulByLimbScalarsLazy+Add in another, plus the
// automorphism tail (AddAutomorphismNTT / AutomorphismNTT) and the scalar
// multiply the merged rescale tail applies to a lazy row, against the
// barriered composition.
func TestPipelineModDownShapedChain(t *testing.T) {
	r := newTestRing(t, 6, 9)
	s := testStream(23)
	level := r.MaxLevel()
	g := r.GaloisElement(3)

	scalars := make([]uint64, level+1)
	for i := range scalars {
		scalars[i] = uint64(7*i+5) % r.Moduli[i].Q
	}

	uq := s.UniformPoly(r, level, true)
	conv := s.UniformPoly(r, level, false)
	c0 := s.UniformPoly(r, level, true)
	src := s.UniformPoly(r, level, true)

	// Barriered reference.
	wantW := r.NewPoly(level)
	wantW.Copy(src)
	r.INTT(wantW, level)
	wantConv := conv.CopyNew()
	nttLazy(r, wantConv, level)
	wantD := r.NewPoly(level)
	subMulScalarsLazy(r, wantD, uq, wantConv, scalars, level)
	wantD.IsNTT = true
	wantS := r.NewPoly(level)
	r.MulByLimbScalars(wantS, wantConv, scalars, level)
	preAdd := wantD.CopyNew()
	r.Add(wantD, wantD, c0, level)
	wantO := r.NewPoly(level)
	r.AutomorphismNTT(wantO, wantD, g, level)
	r.NTT(wantW, level)
	wantO1 := r.NewPoly(level)
	r.AutomorphismNTT(wantO1, wantW, g, level)

	// Pipelined. The add-then-permute pair is recorded as the fused
	// AddAutomorphismNTT stage.
	gotW := r.NewPoly(level)
	gotConv := conv.CopyNew()
	gotD := r.NewPoly(level)
	gotO := r.NewPoly(level)
	gotO1 := r.NewPoly(level)
	gotS := r.NewPoly(level)
	pl := GetPipeline()
	ln := pl.Lane(r, level)
	ln.Copy(gotW, src)
	ln.INTT(gotW)
	ln.NTTLazy(gotConv)
	ln.SubMulByLimbScalarsLazy(gotD, uq, gotConv, scalars)
	ln.MulByLimbScalars(gotS, gotConv, scalars)
	ln.AddAutomorphismNTT(gotO, gotD, c0, g)
	pl.Run()
	// Separate Run on the same (released-and-reused) pipeline: the coeff
	// domain poly from the first chain feeds an NTT-domain permutation after
	// a manual flag fix, exercising re-recording.
	r.NTT(gotW, level)
	ln2 := pl.Lane(r, level)
	ln2.AutomorphismNTT(gotO1, gotW, g)
	pl.Run()
	pl.Release()

	// The pipelined gotD holds the pre-add value: the fused AddAutomorphismNTT
	// stage sums on the fly without writing the intermediate.
	if !gotD.Equal(preAdd) {
		t.Fatal("pipelined SubMul epilogue != barriered SubMul epilogue")
	}
	if !gotO.Equal(wantO) {
		t.Fatal("pipelined AddAutomorphismNTT != barriered Add + AutomorphismNTT")
	}
	if !gotS.Equal(wantS) || !gotS.IsNTT {
		t.Fatal("pipelined MulByLimbScalars of a lazy row != barriered MulByLimbScalars")
	}
	if !gotW.Equal(wantW) {
		t.Fatal("pipelined Copy+INTT != barriered Copy+INTT")
	}
	if !gotO1.Equal(wantO1) {
		t.Fatal("second-chain AutomorphismNTT mismatch after pipeline reuse")
	}
}

// TestPipelineTensorChain covers the exact element-wise stages (MulCoeffs,
// MulCoeffsAdd, Add) against the barriered composition.
func TestPipelineTensorChain(t *testing.T) {
	r := newTestRing(t, 5, 8)
	s := testStream(29)
	level := r.MaxLevel()
	a0 := s.UniformPoly(r, level, true)
	a1 := s.UniformPoly(r, level, true)
	b0 := s.UniformPoly(r, level, true)
	b1 := s.UniformPoly(r, level, true)

	want0, want1, want2 := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
	want1.IsNTT = true
	r.MulCoeffs(want0, a0, b0, level)
	r.MulCoeffsAdd(want1, a0, b1, level)
	r.MulCoeffsAdd(want1, a1, b0, level)
	r.MulCoeffs(want2, a1, b1, level)
	wantSum := r.NewPoly(level)
	r.Add(wantSum, want0, want2, level)

	got0, got1, got2 := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
	got1.IsNTT = true
	gotSum := r.NewPoly(level)
	pl := GetPipeline()
	ln := pl.Lane(r, level)
	ln.MulCoeffs(got0, a0, b0)
	ln.MulCoeffsAdd(got1, a0, b1)
	ln.MulCoeffsAdd(got1, a1, b0)
	ln.MulCoeffs(got2, a1, b1)
	ln.Add(gotSum, got0, got2)
	pl.Run()
	pl.Release()

	if !got0.Equal(want0) || !got1.Equal(want1) || !got2.Equal(want2) || !gotSum.Equal(wantSum) {
		t.Fatal("pipelined tensor chain != barriered composition")
	}
	if !got0.IsNTT || !gotSum.IsNTT {
		t.Fatal("pipeline did not propagate NTT domain flags")
	}
}

// TestPipelineTwoLanes runs a Q-lane and a (shorter) P-lane chain in one
// pipeline, as every key-switch chain does, and checks both against the
// barriered forms. The rings' pool width is set so the parallel branch of Run
// (11 limbs over two lanes, above parallelLimbThreshold) executes on any host,
// including the split where one worker's chunk straddles both lanes.
func TestPipelineTwoLanes(t *testing.T) {
	t.Parallel()
	rq := newTestRing(t, 5, 9)
	rp := newTestRing(t, 5, 2)
	s := testStream(31)
	lq, lp := rq.MaxLevel(), rp.MaxLevel()

	key := modarith.NewStreamKey([32]byte{31})
	aq := s.UniformPoly(rq, lq, true)
	bq := s.UniformPoly(rq, lq, true)
	ap := s.UniformPoly(rp, lp, true)
	bp := s.UniformPoly(rp, lp, true)

	// The B side over the stored rows, the A side over the key's uniform
	// rows of the lane's half.
	wantQ, wantQA := rq.NewPoly(lq), rq.NewPoly(lq)
	wantQ.IsNTT, wantQA.IsNTT = true, true
	rq.MulCoeffsAdd(wantQ, aq, bq, lq)
	rq.MulCoeffsAdd(wantQA, aq, keyRows(rq, key, 0, 0, lq), lq)
	wantP, wantPA := rp.NewPoly(lp), rp.NewPoly(lp)
	wantP.IsNTT, wantPA.IsNTT = true, true
	rp.MulCoeffsAdd(wantP, ap, bp, lp)
	rp.MulCoeffsAdd(wantPA, ap, keyRows(rp, key, 0, 1, lp), lp)
	for _, w := range []*Poly{wantQ, wantQA} {
		rq.ReduceLazy(w, lq)
	}
	for _, w := range []*Poly{wantP, wantPA} {
		rp.ReduceLazy(w, lp)
	}

	for _, workers := range []int{2, 4} {
		rq, rp := newTestRingAt(t, 5, 9, modarith.Kernels{}, workers), newTestRingAt(t, 5, 2, modarith.Kernels{}, workers)
		gotQ, gotQA := rq.NewPoly(lq), rq.NewPoly(lq)
		gotQ.IsNTT, gotQA.IsNTT = true, true
		gotP, gotPA := rp.NewPoly(lp), rp.NewPoly(lp)
		gotP.IsNTT, gotPA.IsNTT = true, true
		pl := GetPipeline()
		lnQ := pl.Lane(rq, lq)
		lnP := pl.Lane(rp, lp)
		lnQ.DotKeyLazy(gotQ, gotQA, []*Poly{aq}, []*Poly{bq}, key, 0, true, false)
		lnQ.ReduceLazy(gotQ)
		lnQ.ReduceLazy(gotQA)
		lnP.DotKeyLazy(gotP, gotPA, []*Poly{ap}, []*Poly{bp}, key, 1, false, true)
		lnP.ReduceLazy(gotP)
		lnP.ReduceLazy(gotPA)
		pl.Run()
		pl.Release()

		if !gotQ.Equal(wantQ) || !gotQA.Equal(wantQA) || !gotP.Equal(wantP) || !gotPA.Equal(wantPA) {
			t.Fatalf("workers=%d: two-lane pipeline != barriered per-ring composition", workers)
		}
	}
}

// TestPipelineFuncStage checks the escape-hatch stage sees every limb exactly
// once, in a valid position of the chain.
func TestPipelineFuncStage(t *testing.T) {
	r := newTestRing(t, 4, 9)
	level := r.MaxLevel()
	p := r.NewPoly(level)
	seen := make([]int, level+1)
	pl := GetPipeline()
	ln := pl.Lane(r, level)
	ln.Func(func(i int) { seen[i]++ }, nil, []*Poly{p})
	pl.Run()
	pl.Release()
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("limb %d executed %d times", i, c)
		}
	}
}

// TestPipelineDomainValidation: record-time checks fire against the pending
// domain, not the current header flag.
func TestPipelineDomainValidation(t *testing.T) {
	r := newTestRing(t, 4, 3)
	level := r.MaxLevel()
	p := r.NewPoly(level) // coeff domain

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected record-time panic", name)
			}
		}()
		f()
	}

	pl := GetPipeline()
	ln := pl.Lane(r, level)
	ln.NTT(p) // pending domain is now NTT although p.IsNTT is still false
	mustPanic("double NTT", func() { ln.NTT(p) })
	out := r.NewPoly(level)
	ln.AutomorphismNTT(out, p, r.GaloisElement(1)) // legal: pending-NTT input
	mustPanic("in-place automorphism", func() { ln.AutomorphismNTT(p, p, r.GaloisElement(1)) })
	mustPanic("coefficient-domain scalar add", func() { ln.AddLimbScalars(out, r.NewPoly(level), []uint64{1, 2, 3}) })
	pl.Run()
	pl.Release()
	if !p.IsNTT {
		t.Fatal("domain flag not applied after Run")
	}

	mustPanic("short operand", func() {
		pl := GetPipeline()
		defer pl.Release()
		short := r.NewPoly(0)
		pl.Lane(r, level).ReduceLazy(short)
	})
}

// TestPipelineTrafficAccounting: a pipelined chain charges distinct rows
// once, credits the saved difference, and bumps the ring's limb-transform
// counters exactly like the barriered transforms.
func TestPipelineTrafficAccounting(t *testing.T) {
	r := newTestRing(t, 5, 4)
	s := testStream(37)
	level := r.MaxLevel()
	limbs := level + 1

	acc, accA := r.NewPoly(level), r.NewPoly(level)
	acc.IsNTT, accA.IsNTT = true, true
	a := s.UniformPoly(r, level, false)
	b := s.UniformPoly(r, level, true)
	key := modarith.NewStreamKey([32]byte{37})

	ntt0, _ := r.Counters()
	pipeBefore := bytesMoved.Value()
	savedBefore := bytesSaved.Value()

	pl := GetPipeline()
	ln := pl.Lane(r, level)
	ln.NTTLazy(a)                                                         // naive 2 rows
	ln.DotKeyLazy(acc, accA, []*Poly{a}, []*Poly{b}, key, 0, true, false) // naive 2·3 − 1 + 1 rows
	ln.ReduceLazy(acc)                                                    // naive 2 rows
	pl.Run()
	pl.Release()

	ntt1, _ := r.Counters()
	if ntt1-ntt0 != int64(limbs) {
		t.Fatalf("ntt limb counter moved by %d, want %d", ntt1-ntt0, limbs)
	}
	rowBytes := float64(limbs * r.N * 8)
	// Distinct rows: a (read+written), b (read), acc (read+written), accA
	// (written) = 6; the key's A row is expanded, never moved.
	if got := bytesMoved.Value() - pipeBefore; got != 6*rowBytes {
		t.Fatalf("pipelined bytes = %v, want %v", got, 6*rowBytes)
	}
	// Naive 10 rows - distinct 6 = 4 rows saved.
	if got := bytesSaved.Value() - savedBefore; got != 4*rowBytes {
		t.Fatalf("saved bytes = %v, want %v", got, 4*rowBytes)
	}
}

// TestPipelineModUpAndBConv is the key switch's shape with no digit or
// conversion polynomial: ModUp converts each digit onto each limb of a Q lane
// (whose own limbs read the NTT input) and a P lane, into Scratch rows that
// the lane transforms and a DotKeyLazy stage reads in the same chain; BConv
// brings a premultiplied P value back onto Q into a Scratch row that a
// SubMulByLimbScalarsLazy epilogue consumes. Each must equal the barriered
// composition — whole-polynomial Convert, NTTLazy, the dot — while the
// counters charge exactly the rows transformed and the traffic model no
// scratch row. Every level, a ragged last digit included, on every kernel
// table.
func TestPipelineModUpAndBConv(t *testing.T) {
	for _, k := range modarith.KernelTables() {
		modUpAndBConv(t, k)
	}
}

func modUpAndBConv(t *testing.T, k modarith.Kernels) {
	const logN, nQ, alpha = 6, 7, 3
	primes := mustPrimes(t, 50, logN, nQ+alpha)
	rq, err := NewRingAt(logN, primes[:nQ], k, par.Workers())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewRingAt(logN, primes[nQ:], k, par.Workers())
	if err != nil {
		t.Fatal(err)
	}
	s := testStream(41)
	key := modarith.NewStreamKey([32]byte{41})
	scalars := make([]uint64, nQ)
	for i := range scalars {
		scalars[i] = uint64(5*i+3) % rq.Moduli[i].Q
	}
	for level := 0; level < nQ; level++ {
		limbs := level + 1
		digits := (limbs + alpha - 1) / alpha
		q := rq.Moduli[:limbs]
		to := append(append([]modarith.Modulus{}, q...), rp.Moduli...)
		conv := make([]*rns.BasisConverter, digits)
		for d := range conv {
			lo, hi := d*alpha, min((d+1)*alpha, limbs)
			if conv[d], err = rns.NewBasisConverter(q[lo:hi], to); err != nil {
				t.Fatal(err)
			}
		}
		in := s.UniformPoly(rq, level, true)
		coeff := in.CopyNew()
		rq.INTT(coeff, level)
		keyQ, keyP := make([]*Poly, digits), make([]*Poly, digits)
		for d := range keyQ {
			keyQ[d], keyP[d] = s.UniformPoly(rq, level, true), s.UniformPoly(rp, alpha-1, true)
		}

		// Barriered reference: whole digit polynomials, own rows copied from in.
		wantQ, wantQA := rq.NewPoly(level), rq.NewPoly(level)
		wantP, wantPA := rp.NewPoly(alpha-1), rp.NewPoly(alpha-1)
		for d, bc := range conv {
			lo, hi := d*alpha, min((d+1)*alpha, limbs)
			dq, dp := rq.NewPoly(level), rp.NewPoly(alpha-1)
			bc.Convert(append(append([][]uint64{}, dq.Coeffs...), dp.Coeffs...), coeff.Coeffs[lo:hi])
			nttLazy(rq, dq, level)
			nttLazy(rp, dp, alpha-1)
			for i := lo; i < hi; i++ {
				copy(dq.Coeffs[i], in.Coeffs[i])
			}
			rq.MulCoeffsAdd(wantQ, dq, keyQ[d], level)
			rq.MulCoeffsAdd(wantQA, dq, keyRows(rq, key, d, 0, level), level)
			rp.MulCoeffsAdd(wantP, dp, keyP[d], alpha-1)
			rp.MulCoeffsAdd(wantPA, dp, keyRows(rp, key, d, 1, alpha-1), alpha-1)
		}
		for _, w := range []*Poly{wantQ, wantQA} {
			rq.ReduceLazy(w, level)
			w.IsNTT = true
		}
		for _, w := range []*Poly{wantP, wantPA} {
			rp.ReduceLazy(w, alpha-1)
			w.IsNTT = true
		}

		// Pipelined: the premultiplied copy is the only whole polynomial.
		pre := coeff.CopyNew()
		for d, bc := range conv {
			for k, w := range bc.QHatInv() {
				m := q[d*alpha+k]
				m.VecMulShoup(pre.Coeffs[d*alpha+k], pre.Coeffs[d*alpha+k], w, m.ShoupPrecomp(w))
			}
		}
		gotQ, gotQA, gotP, gotPA := rq.NewPoly(level), rq.NewPoly(level), rp.NewPoly(alpha-1), rp.NewPoly(alpha-1)
		ntt0, _ := rq.Counters()
		nttP0, _ := rp.Counters()
		pipe0 := bytesMoved.Value()
		pl := GetPipeline()
		lq, lp := pl.Lane(rq, level), pl.Lane(rp, alpha-1)
		dq, dp := lq.Scratch(digits), lp.Scratch(digits)
		lq.ModUp(dq, in, pre, conv, 0)
		lp.ModUp(dp, nil, pre, conv, limbs)
		lq.DotKeyLazy(gotQ, gotQA, dq, keyQ, key, 0, false, false)
		lp.DotKeyLazy(gotP, gotPA, dp, keyP, key, 1, false, false)
		for _, g := range []*Poly{gotQ, gotQA} {
			lq.ReduceLazy(g)
		}
		for _, g := range []*Poly{gotP, gotPA} {
			lp.ReduceLazy(g)
		}
		pl.Run()
		pl.Release()

		if !gotQ.Equal(wantQ) || !gotQA.Equal(wantQA) || !gotP.Equal(wantP) || !gotPA.Equal(wantPA) {
			t.Fatalf("level %d: pipelined ModUp + dot != barriered Convert + NTTLazy + dot", level)
		}
		// Q: every limb of every digit but the digit's own; P: all of them.
		if ntt1, _ := rq.Counters(); ntt1-ntt0 != int64(digits*limbs-limbs) {
			t.Fatalf("level %d: Q limb transforms %d, want %d", level, ntt1-ntt0, digits*limbs-limbs)
		}
		if nttP1, _ := rp.Counters(); nttP1-nttP0 != int64(digits*alpha) {
			t.Fatalf("level %d: P limb transforms %d, want %d", level, nttP1-nttP0, digits*alpha)
		}
		// Distinct rows: pre read once per lane and in once, the key's B
		// rows read, the accumulators written and reduced in place; the
		// digit rows and the key's A rows never reach memory.
		rowBytes := float64(rq.N * 8)
		distinct := float64(3*limbs + digits*(limbs+alpha) + 2*2*(limbs+alpha))
		if got := bytesMoved.Value() - pipe0; got != distinct*rowBytes {
			t.Fatalf("level %d: pipelined bytes %v, want %v", level, got/rowBytes, distinct)
		}

		// ModDown: P → Q_level of a premultiplied P value, then the epilogue.
		up := s.UniformPoly(rp, alpha-1, false)
		uq := s.UniformPoly(rq, level, true)
		toQ, err := rns.NewBasisConverter(rp.Moduli, q)
		if err != nil {
			t.Fatal(err)
		}
		conv0 := rq.NewPoly(level)
		toQ.Convert(conv0.Coeffs, up.Coeffs)
		nttLazy(rq, conv0, level)
		want := rq.NewPoly(level)
		subMulScalarsLazy(rq, want, uq, conv0, scalars, level)
		for k, w := range toQ.QHatInv() {
			m := rp.Moduli[k]
			m.VecMulShoup(up.Coeffs[k], up.Coeffs[k], w, m.ShoupPrecomp(w))
		}
		got := rq.NewPoly(level)
		pl = GetPipeline()
		ln := pl.Lane(rq, level)
		c := ln.Scratch(1)[0]
		ln.BConv(c, up, toQ)
		ln.NTTLazy(c)
		ln.SubMulByLimbScalarsLazy(got, uq, c, scalars)
		pl.Run()
		pl.Release()
		if !got.Equal(want) || !got.IsNTT {
			t.Fatalf("level %d: pipelined BConv + epilogue != barriered Convert + NTTLazy + epilogue", level)
		}
	}
}

// TestPipelineLimbWindow is the ModUp digit shape: a digit whose limbs
// [lo, hi) are the NTT input's own rows and whose other limbs are converted
// and transformed must equal the barriered Convert + NTTLazy with the input's
// rows over the window — while the counters and the traffic model charge only
// the rows transformed or moved, none for the window and none for the
// scratch digits.
func TestPipelineLimbWindow(t *testing.T) {
	r := newTestRing(t, 6, 9)
	s := testStream(41)
	level := r.MaxLevel()
	limbs := level + 1
	for _, win := range [][2]int{{0, 3}, {3, 6}, {6, 9}, {0, 9}} {
		lo, hi := win[0], win[1]
		// Digits [0, lo), [lo, hi), [hi, limbs), empty ones dropped; wd is
		// the window's digit.
		var conv []*rns.BasisConverter
		wd := 0
		for _, d := range [][2]int{{0, lo}, {lo, hi}, {hi, limbs}} {
			if d[0] == d[1] {
				continue
			}
			if d[0] == lo {
				wd = len(conv)
			}
			bc, err := rns.NewBasisConverter(r.Moduli[d[0]:d[1]], r.Moduli)
			if err != nil {
				t.Fatal(err)
			}
			conv = append(conv, bc)
		}
		digits := len(conv)
		in := s.UniformPoly(r, level, true)
		coeff := in.CopyNew()
		r.INTT(coeff, level)

		want := r.NewPoly(level)
		conv[wd].Convert(want.Coeffs, coeff.Coeffs[lo:hi])
		nttLazy(r, want, level)
		for i := lo; i < hi; i++ {
			copy(want.Coeffs[i], in.Coeffs[i])
		}
		r.ReduceLazy(want, level)

		pre := coeff.CopyNew()
		row := 0
		for _, bc := range conv {
			for _, w := range bc.QHatInv() {
				m := r.Moduli[row]
				m.VecMulShoup(pre.Coeffs[row], pre.Coeffs[row], w, m.ShoupPrecomp(w))
				row++
			}
		}
		got := r.NewPoly(level)
		ntt0, _ := r.Counters()
		pipe0, saved0 := bytesMoved.Value(), bytesSaved.Value()
		pl := GetPipeline()
		ln := pl.Lane(r, level)
		dig := ln.Scratch(digits)
		ln.ModUp(dig, in, pre, conv, 0)
		ln.Copy(got, dig[wd])
		pl.Run()
		pl.Release()
		ntt1, _ := r.Counters()
		pipe1, saved1 := bytesMoved.Value(), bytesSaved.Value() // before ReduceLazy charges its own rows

		if !got.IsNTT {
			t.Fatalf("window %v: the copied digit is not flagged NTT", win)
		}
		r.ReduceLazy(got, level)
		if !got.Equal(want) {
			t.Fatalf("window %v: windowed digit != barriered Convert + NTTLazy with the input's own rows", win)
		}
		// Every digit transforms the limbs outside its own window.
		if ntt1-ntt0 != int64(digits*limbs-limbs) {
			t.Fatalf("window %v: ntt limb counter moved by %d, want %d", win, ntt1-ntt0, digits*limbs-limbs)
		}
		// Distinct: pre and in read on every limb, got written. Naive: each
		// digit row written, read and written back by its transform, then
		// the copy's read and write.
		rowBytes := float64(r.N * 8)
		distinct := float64(3 * limbs)
		if got := pipe1 - pipe0; got != distinct*rowBytes {
			t.Fatalf("window %v: pipelined bytes = %v, want %v", win, got, distinct*rowBytes)
		}
		naive := float64((3*digits + 2) * limbs)
		if got := saved1 - saved0; got != (naive-distinct)*rowBytes {
			t.Fatalf("window %v: saved bytes = %v, want %v", win, got, (naive-distinct)*rowBytes)
		}
	}
}

// ---------------------------------------------------------------------------
// Automorphism cache satellites

// galoisElementLoop is the O(r) multiply-loop form of GaloisElement, its
// differential oracle.
func (r *Ring) galoisElementLoop(rot int) uint64 {
	twoN := uint64(2 * r.N)
	n2 := r.N >> 1
	rot = ((rot % n2) + n2) % n2
	g := uint64(1)
	for k := 0; k < rot; k++ {
		g = g * 5 % twoN
	}
	return g
}

// TestGaloisElementMatchesLoop: the square-and-multiply form agrees with the
// O(r) multiply loop, including negative and wrapped rotations.
func TestGaloisElementMatchesLoop(t *testing.T) {
	r := newTestRing(t, 8, 1)
	rots := []int{0, 1, 2, 3, 5, 17, 100, r.N/2 - 1, r.N / 2, r.N, -1, -7, -r.N / 2, 123456, -99999}
	for _, rot := range rots {
		if got, want := r.GaloisElement(rot), r.galoisElementLoop(rot); got != want {
			t.Fatalf("rot %d: square-and-multiply %d != loop %d", rot, got, want)
		}
	}
}

// TestAutomorphismCacheConcurrent hammers the lock-free permutation cache from
// many goroutines resolving overlapping rotation sets (run under -race this
// is the S2 regression: hot rotate paths must never contend or tear).
func TestAutomorphismCacheConcurrent(t *testing.T) {
	r := newTestRing(t, 6, 2)
	s := testStream(41)
	level := r.MaxLevel()
	in := s.UniformPoly(r, level, true)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := r.NewPoly(level)
			for iter := 0; iter < 50; iter++ {
				rot := (w+iter)%7 + 1
				g := r.GaloisElement(rot)
				if g != r.galoisElementLoop(rot) {
					t.Errorf("concurrent GaloisElement(%d) disagreed with loop oracle", rot)
					return
				}
				if p := r.autoPerm(g); p.Len() != r.N {
					t.Errorf("concurrent autoPerm(%d) returned short table", g)
					return
				}
				r.AutomorphismNTT(out, in, g, level)
			}
		}()
	}
	wg.Wait()
}

// TestPipelineZeroStage: a Zero stage ahead of a MAC makes an accumulator
// that starts as garbage (pool memory) equal to the MAC onto a zero
// polynomial, at every level.
func TestPipelineZeroStage(t *testing.T) {
	r := newTestRing(t, 6, 9)
	s := testStream(29)
	for level := 0; level <= r.MaxLevel(); level++ {
		a, b := s.UniformPoly(r, level, true), s.UniformPoly(r, level, true)
		want := r.NewPoly(level)
		want.IsNTT = true
		r.MulCoeffsAdd(want, a, b, level)
		r.ReduceLazy(want, level)

		got := r.NewPoly(level)
		got.IsNTT = true
		got.poison()
		pl := GetPipeline()
		ln := pl.Lane(r, level)
		ln.Zero(got)
		ln.AutMulAccWide(got, a, b, 1) // σ_1 is the identity
		ln.ReduceWide(got)
		pl.Run()
		pl.Release()
		if !got.Equal(want) {
			t.Fatalf("level %d: Zero + MAC != MAC onto a zero polynomial", level)
		}
	}
}

// TestPipelineAutMulAccWide is the sweep's baby-phase shape: lazy operands
// (< 2q, as a dot stage leaves them) permuted by σ_g and multiplied by exact
// rows into 128-bit accumulators, more products per accumulator than one
// 128-bit sum holds at 61-bit moduli — so the mid-chain fold must run — one
// accumulator opened on a live exact value and one on a Zero stage, in two
// lanes of one pipeline at pool widths 1, 2 and 4 (one scratch buffer per
// chunk of limbs). Each must equal the barriered Automorphism + MulCoeffs +
// Add composition, and the scratch must leave no trace between Runs.
func TestPipelineAutMulAccWide(t *testing.T) {
	t.Parallel()
	primes := mustPrimes(t, modarith.MaxModulusBits, 6, 9)
	r, err := NewRing(6, primes)
	if err != nil {
		t.Fatal(err)
	}
	s := testStream(43)
	levels := [2]int{r.MaxLevel(), 3}
	terms := modarith.MaxDotTerms + 5
	// Uniform rows, every other coefficient lifted by q into the lazy range;
	// every coefficient at 0 mod 4 saturated (2q−1 and q−1), where the sum of
	// the products overflows 128 bits unless it is folded. σ_g moves the
	// saturated coefficients of a, so b is saturated where they land.
	g := r.GaloisElement(3)
	idx := nttAutoIndex(r.LogN, g)
	operands := func(level int) (a, b *Poly) {
		a, b = s.UniformPoly(r, level, true), s.UniformPoly(r, level, true)
		for i := 0; i <= level; i++ {
			q := r.Moduli[i].Q
			for j := 0; j < r.N; j += 2 {
				a.Coeffs[i][j] += q
			}
			for j := 0; j < r.N; j += 4 {
				b.Coeffs[i][j], a.Coeffs[i][idx[j]] = q-1, 2*q-1
			}
		}
		return a, b
	}
	var as, bs [2][]*Poly
	var gs []uint64
	for k := 0; k < terms; k++ {
		gs = append(gs, g)
		for l, level := range levels {
			a, b := operands(level)
			as[l], bs[l] = append(as[l], a), append(bs[l], b)
		}
	}
	live := s.UniformPoly(r, levels[0], true)

	var want [2]*Poly
	for l, level := range levels {
		want[l] = r.NewPoly(level)
		want[l].IsNTT = true
		if l == 0 {
			want[l].Copy(live)
		}
		rot, tmp := r.NewPoly(level), r.NewPoly(level)
		for k := range gs {
			r.AutomorphismNTT(rot, as[l][k], gs[k], level)
			r.MulCoeffs(tmp, rot, bs[l][k], level)
			r.Add(want[l], want[l], tmp, level)
		}
	}

	for _, workers := range []int{1, 2, 4} {
		r, err := NewRingAt(6, primes, modarith.Kernels{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]*Poly{live.CopyNew(), r.NewPoly(levels[1])}
		got[1].IsNTT = true
		got[1].poison()
		for run := 0; run < 2; run++ { // the second Run reuses pooled scratch
			pl := GetPipeline()
			ln := [2]*Lane{pl.Lane(r, levels[0]), pl.Lane(r, levels[1])}
			if run == 1 {
				got[0].Copy(live)
				got[1].poison()
			}
			ln[1].Zero(got[1])
			for k := range gs {
				for l := range ln {
					ln[l].AutMulAccWide(got[l], as[l][k], bs[l][k], gs[k])
				}
			}
			for l := range ln {
				ln[l].ReduceWide(got[l])
			}
			pl.Run()
			pl.Release()
			for l := range got {
				if !got[l].Equal(want[l]) {
					t.Fatalf("workers=%d run %d lane %d: 128-bit MAC chain != barriered composition", workers, run, l)
				}
			}
		}
	}
}

// TestPipelineWideAccumulatorBalance: a 128-bit accumulator must be opened
// by a MAC before ReduceWide closes it, and closed before Run.
func TestPipelineWideAccumulatorBalance(t *testing.T) {
	r := newTestRing(t, 4, 3)
	level := r.MaxLevel()
	s := testStream(47)
	a, b := s.UniformPoly(r, level, true), s.UniformPoly(r, level, true)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a panic", name)
			}
		}()
		f()
	}
	mustPanic("ReduceWide before any MAC", func() {
		pl := GetPipeline()
		defer pl.Release()
		pl.Lane(r, level).ReduceWide(r.NewPoly(level))
	})
	mustPanic("Run with an open accumulator", func() {
		pl := GetPipeline()
		defer pl.Release()
		acc := r.NewPoly(level)
		acc.IsNTT = true
		pl.Lane(r, level).AutMulAccWide(acc, a, b, 1)
		pl.Run()
	})
}
