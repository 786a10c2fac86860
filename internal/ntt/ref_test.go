package ntt

// Reference implementations: the textbook fully-reduced kernels, an
// independently-derived oracle for the differential tests.

// ForwardRef is the textbook fully-reduced forward transform: one exact
// Shoup multiply, one exact add, and one exact subtract per butterfly.
func (t *Tables) ForwardRef(a []uint64) {
	t.checkLen(a, "ForwardRef")
	mod := t.Mod
	span := t.N
	for m := 1; m < t.N; m <<= 1 {
		span >>= 1
		for i := 0; i < m; i++ {
			w := t.psiRev[m+i]
			ws := t.psiRevShoup[m+i]
			j1 := 2 * i * span
			for j := j1; j < j1+span; j++ {
				u := a[j]
				v := mod.MulShoup(a[j+span], w, ws)
				a[j] = mod.Add(u, v)
				a[j+span] = mod.Sub(u, v)
			}
		}
	}
}

// InverseRef is the fully-reduced inverse transform with a separate 1/N
// scaling pass. Its twiddle for block m+i is ψ^(−brv(m+i)) =
// q − psiRev[2m−1−i], the forward block mirrored and negated, with its
// Shoup companion computed afresh rather than complemented.
func (t *Tables) InverseRef(a []uint64) {
	t.checkLen(a, "InverseRef")
	mod := t.Mod
	span := 1
	for m := t.N >> 1; m >= 1; m >>= 1 {
		for i := 0; i < m; i++ {
			w := mod.Q - t.psiRev[2*m-1-i]
			ws := mod.ShoupPrecomp(w)
			j1 := 2 * i * span
			for j := j1; j < j1+span; j++ {
				u := a[j]
				v := a[j+span]
				a[j] = mod.Add(u, v)
				a[j+span] = mod.MulShoup(mod.Sub(u, v), w, ws)
			}
		}
		span <<= 1
	}
	for j := range a {
		a[j] = mod.MulShoup(a[j], t.nInv, t.nInvShoup)
	}
}
