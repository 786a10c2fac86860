package ring

import (
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/par"
)

// The pipeline executes the same row kernels the barriered ops dispatch, in
// the same per-limb order — every test here demands bit-identical agreement
// with the barriered composition it replaces.

// TestPipelineKeySwitchShapedChain runs the gadget-product-shaped chain (the
// forward NTTLazy of every "digit", then one DotLazy per accumulator, ending
// in a reduction) and compares against the barriered MAC-per-term composition,
// at every level. The dot stage reduces once where the MAC chain reduces per
// term, so the lazy representatives differ; the reduced residues may not. With
// accumulate the product lands on a live accumulator; without it the stage
// must overwrite whatever (here: garbage) the accumulator held.
func TestPipelineKeySwitchShapedChain(t *testing.T) {
	r := newTestRing(t, 6, 10)
	s := NewSampler(19)
	const digits = 3
	for level := 0; level <= r.MaxLevel(); level++ {
		for _, accumulate := range []bool{false, true} {
			digQ := make([]*Poly, digits)
			keyB := make([]*Poly, digits)
			keyA := make([]*Poly, digits)
			for d := range digQ {
				digQ[d] = s.UniformPoly(r, level, false) // coeff domain, exact
				keyB[d] = s.UniformPoly(r, level, true)
				keyA[d] = s.UniformPoly(r, level, true)
			}
			live0, live1 := s.UniformPoly(r, level, true), s.UniformPoly(r, level, true)

			// Barriered reference.
			wantDig := make([]*Poly, digits)
			for d := range digQ {
				wantDig[d] = digQ[d].CopyNew()
				r.NTTLazy(wantDig[d], level)
			}
			want0, want1 := r.NewPoly(level), r.NewPoly(level)
			want0.IsNTT, want1.IsNTT = true, true
			if accumulate {
				want0.Copy(live0)
				want1.Copy(live1)
			}
			for d := range digQ {
				r.MulCoeffsAddLazy(want0, wantDig[d], keyB[d], level)
				r.MulCoeffsAddLazy(want1, wantDig[d], keyA[d], level)
			}
			r.ReduceLazy(want0, level)
			r.ReduceLazy(want1, level)

			// Pipelined: whole chain per limb, one barrier.
			got0, got1 := live0.CopyNew(), live1.CopyNew()
			if !accumulate {
				for i := range got0.Coeffs {
					for j := range got0.Coeffs[i] {
						got0.Coeffs[i][j], got1.Coeffs[i][j] = ^uint64(0), ^uint64(0)
					}
				}
			}
			pl := GetPipeline()
			ln := pl.Lane(r, level)
			for d := range digQ {
				ln.NTTLazy(digQ[d])
			}
			ln.DotLazy(got0, digQ, keyB, accumulate)
			ln.DotLazy(got1, digQ, keyA, accumulate)
			ln.ReduceLazy(got0)
			ln.ReduceLazy(got1)
			pl.Run()
			pl.Release()

			if !got0.Equal(want0) || !got1.Equal(want1) {
				t.Fatalf("level %d accumulate=%v: pipelined gadget chain != barriered composition", level, accumulate)
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
	s := NewSampler(23)
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
	r.NTTLazy(wantConv, level)
	wantD := r.NewPoly(level)
	r.SubMulByLimbScalarsLazy(wantD, uq, wantConv, scalars, level)
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
	s := NewSampler(29)
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
// barriered forms. The pool width is forced so the parallel branch of Run
// (11 limbs over two lanes, above parallelLimbThreshold) executes on any host,
// including the split where one worker's chunk straddles both lanes.
func TestPipelineTwoLanes(t *testing.T) {
	rq := newTestRing(t, 5, 9)
	rp := newTestRing(t, 5, 2)
	s := NewSampler(31)
	lq, lp := rq.MaxLevel(), rp.MaxLevel()

	aq := s.UniformPoly(rq, lq, true)
	bq := s.UniformPoly(rq, lq, true)
	ap := s.UniformPoly(rp, lp, true)
	bp := s.UniformPoly(rp, lp, true)

	wantQ := rq.NewPoly(lq)
	wantQ.IsNTT = true
	rq.MulCoeffsAddLazy(wantQ, aq, bq, lq)
	rq.ReduceLazy(wantQ, lq)
	wantP := rp.NewPoly(lp)
	wantP.IsNTT = true
	rp.MulCoeffsAddLazy(wantP, ap, bp, lp)
	rp.ReduceLazy(wantP, lp)

	for _, workers := range []int{2, 4} {
		prev := par.SetWorkers(workers)
		gotQ := rq.NewPoly(lq)
		gotQ.IsNTT = true
		gotP := rp.NewPoly(lp)
		gotP.IsNTT = true
		pl := GetPipeline()
		lnQ := pl.Lane(rq, lq)
		lnP := pl.Lane(rp, lp)
		lnQ.DotLazy(gotQ, []*Poly{aq}, []*Poly{bq}, true)
		lnQ.ReduceLazy(gotQ)
		lnP.DotLazy(gotP, []*Poly{ap}, []*Poly{bp}, false)
		lnP.ReduceLazy(gotP)
		pl.Run()
		pl.Release()
		par.SetWorkers(prev)

		if !gotQ.Equal(wantQ) || !gotP.Equal(wantP) {
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
	s := NewSampler(37)
	level := r.MaxLevel()
	limbs := level + 1

	acc := r.NewPoly(level)
	acc.IsNTT = true
	a := s.UniformPoly(r, level, false)
	b := s.UniformPoly(r, level, true)

	ntt0, _ := r.Counters()
	pipeBefore := bytesPipelined.Value()
	savedBefore := bytesSaved.Value()

	pl := GetPipeline()
	ln := pl.Lane(r, level)
	ln.NTTLazy(a)                                 // naive 2 rows
	ln.DotLazy(acc, []*Poly{a}, []*Poly{b}, true) // naive 2·1 + 2 rows
	ln.ReduceLazy(acc)                            // naive 2 rows
	pl.Run()
	pl.Release()

	ntt1, _ := r.Counters()
	if ntt1-ntt0 != int64(limbs) {
		t.Fatalf("ntt limb counter moved by %d, want %d", ntt1-ntt0, limbs)
	}
	rowBytes := float64(limbs * r.N * 8)
	// Distinct rows: a (read+written), b (read), acc (read+written) = 5.
	if got := bytesPipelined.Value() - pipeBefore; got != 5*rowBytes {
		t.Fatalf("pipelined bytes = %v, want %v", got, 5*rowBytes)
	}
	// Naive 8 rows - distinct 5 = 3 rows saved.
	if got := bytesSaved.Value() - savedBefore; got != 3*rowBytes {
		t.Fatalf("saved bytes = %v, want %v", got, 3*rowBytes)
	}
}

// TestPipelineLimbWindow is the ModUp digit shape: a polynomial whose limbs
// [lo, hi) are copied from an NTT-domain source (CopyRows) and whose other
// limbs are coefficient rows gets NTTLazyExcept, and must equal the barriered
// NTTLazy of the all-coefficient polynomial — while the counters and the
// traffic model charge only the rows transformed or moved.
func TestPipelineLimbWindow(t *testing.T) {
	r := newTestRing(t, 6, 9)
	s := NewSampler(41)
	level := r.MaxLevel()
	limbs := level + 1
	for _, win := range [][2]int{{0, 3}, {3, 6}, {6, 9}, {0, 9}} {
		lo, hi := win[0], win[1]
		w := hi - lo
		x := s.UniformPoly(r, level, false)
		want := x.CopyNew()
		r.NTT(want, level)

		// dig: garbage in the own window, x's coefficient rows elsewhere.
		dig := x.CopyNew()
		for i := lo; i < hi; i++ {
			for j := range dig.Coeffs[i] {
				dig.Coeffs[i][j] = ^uint64(0)
			}
		}
		acc := r.NewPoly(level)
		acc.IsNTT = true

		ntt0, _ := r.Counters()
		pipe0, saved0 := bytesPipelined.Value(), bytesSaved.Value()
		pl := GetPipeline()
		ln := pl.Lane(r, level)
		ln.CopyRows(dig, want, lo, hi)
		pl.Run()
		// CopyRows: w rows read, w rows written, nothing saved.
		rowBytes := float64(r.N * 8)
		if got := bytesPipelined.Value() - pipe0; got != float64(2*w)*rowBytes {
			t.Fatalf("window %v: CopyRows charged %v bytes, want %v", win, got, float64(2*w)*rowBytes)
		}
		if dig.IsNTT {
			t.Fatalf("window %v: CopyRows changed the destination's domain flag", win)
		}

		pipe0 = bytesPipelined.Value()
		ln = pl.Lane(r, level)
		ln.NTTLazyExcept(dig, lo, hi)
		ln.DotLazy(acc, []*Poly{dig}, []*Poly{want}, true)
		pl.Run()
		pl.Release()

		if !dig.IsNTT {
			t.Fatalf("window %v: NTTLazyExcept did not flag the polynomial", win)
		}
		r.ReduceLazy(dig, level)
		if !dig.Equal(want) {
			t.Fatalf("window %v: windowed digit != NTT of the coefficient polynomial", win)
		}
		if ntt1, _ := r.Counters(); ntt1-ntt0 != int64(limbs-w) {
			t.Fatalf("window %v: ntt limb counter moved by %d, want %d", win, ntt1-ntt0, limbs-w)
		}
		// Distinct: dig read on every limb (the dot) and written on limbs−w,
		// want read, acc read+written. Naive: 2·(limbs−w) + 4·limbs.
		distinct := float64(limbs + (limbs - w) + 3*limbs)
		if got := bytesPipelined.Value() - pipe0; got != distinct*rowBytes {
			t.Fatalf("window %v: pipelined bytes = %v, want %v", win, got, distinct*rowBytes)
		}
		naive := float64(2*(limbs-w) + 4*limbs)
		if got := bytesSaved.Value() - saved0; got != (naive-distinct)*rowBytes {
			t.Fatalf("window %v: saved bytes = %v, want %v", win, got, (naive-distinct)*rowBytes)
		}
	}
}

// ---------------------------------------------------------------------------
// Automorphism cache satellites

// TestGaloisElementMatchesLoop: the square-and-multiply form agrees with the
// retired O(r) multiply loop, including negative and wrapped rotations, and
// the cached second lookup returns the same value.
func TestGaloisElementMatchesLoop(t *testing.T) {
	r := newTestRing(t, 8, 1)
	rots := []int{0, 1, 2, 3, 5, 17, 100, r.N/2 - 1, r.N / 2, r.N, -1, -7, -r.N / 2, 123456, -99999}
	for _, rot := range rots {
		want := r.galoisElementLoop(rot)
		if got := r.GaloisElement(rot); got != want {
			t.Fatalf("rot %d: square-and-multiply %d != loop %d", rot, got, want)
		}
		if got := r.GaloisElement(rot); got != want {
			t.Fatalf("rot %d: cached lookup %d != loop %d", rot, got, want)
		}
	}
}

// TestAutomorphismCacheConcurrent hammers the lock-free snapshot caches from
// many goroutines resolving overlapping rotation sets (run under -race this
// is the S2 regression: hot rotate paths must never contend or tear).
func TestAutomorphismCacheConcurrent(t *testing.T) {
	r := newTestRing(t, 6, 2)
	s := NewSampler(41)
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
				if idx := r.nttAutoIndex(g); len(idx) != r.N {
					t.Errorf("concurrent nttAutoIndex(%d) returned short table", g)
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
	s := NewSampler(29)
	for level := 0; level <= r.MaxLevel(); level++ {
		a, b := s.UniformPoly(r, level, true), s.UniformPoly(r, level, true)
		want := r.NewPoly(level)
		want.IsNTT = true
		r.MulCoeffsAddLazy(want, a, b, level)
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
	r, err := NewRing(6, mustPrimes(t, modarith.MaxModulusBits, 6, 9))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(43)
	levels := [2]int{r.MaxLevel(), 3}
	terms := modarith.MaxDotTerms + 5
	// Uniform rows, every other coefficient lifted by q into the lazy range;
	// every coefficient at 0 mod 4 saturated (2q−1 and q−1), where the sum of
	// the products overflows 128 bits unless it is folded. σ_g moves the
	// saturated coefficients of a, so b is saturated where they land.
	g := r.GaloisElement(3)
	idx := r.nttAutoIndex(g)
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
		prev := par.SetWorkers(workers)
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
		par.SetWorkers(prev)
	}
}

// TestPipelineWideAccumulatorBalance: a 128-bit accumulator must be opened
// by a MAC before ReduceWide closes it, and closed before Run.
func TestPipelineWideAccumulatorBalance(t *testing.T) {
	r := newTestRing(t, 4, 3)
	level := r.MaxLevel()
	s := NewSampler(47)
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
