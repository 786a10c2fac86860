package ckks

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ring"
)

func TestCiphertextSerialization(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(80))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)

	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Ciphertext
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Scale != ct.Scale || back.Level() != ct.Level() {
		t.Fatal("metadata not preserved")
	}
	if !back.C0.Equal(ct.C0) || !back.C1.Equal(ct.C1) {
		t.Fatal("coefficients not preserved")
	}
	// And it still decrypts.
	if e := maxErr(tc.decryptVec(&back), v); e > 1e-6 {
		t.Fatalf("deserialized ciphertext decrypts with error %g", e)
	}
}

func TestKeySerialization(t *testing.T) {
	tc := newTestContext(t, TestParameters())

	skData, err := tc.sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var sk SecretKey
	if err := sk.UnmarshalBinary(skData); err != nil {
		t.Fatal(err)
	}
	if !sk.Q.Equal(tc.sk.Q) || !sk.P.Equal(tc.sk.P) {
		t.Fatal("secret key not preserved")
	}

	pkData, err := tc.pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pk PublicKey
	if err := pk.UnmarshalBinary(pkData); err != nil {
		t.Fatal(err)
	}
	if !pk.A.Equal(tc.pk.A) || !pk.B.Equal(tc.pk.B) {
		t.Fatal("public key not preserved")
	}

	rlkData, err := tc.keys.Rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var rlk SwitchingKey
	if err := rlk.UnmarshalBinary(rlkData); err != nil {
		t.Fatal(err)
	}
	if rlk.Digits() != tc.keys.Rlk.Digits() {
		t.Fatal("digit count not preserved")
	}

	// A deserialized relinearization key must still relinearize: multiply
	// with it and check correctness.
	r := rand.New(rand.NewSource(81))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)
	prod := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: &rlk}).mul(ct, ct)
	want := make([]complex128, len(v))
	for i := range v {
		want[i] = v[i] * v[i]
	}
	if e := maxErr(tc.decryptVec(prod), want); e > 1e-4 {
		t.Fatalf("deserialized rlk multiplication error %g", e)
	}
}

func TestPlaintextSerialization(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(82))
	v := randomComplex(r, tc.params.Slots(), 1)
	pt, err := tc.enc.Encode(v, 3, tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	orig := &Plaintext{Value: pt, Scale: tc.params.DefaultScale()}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Plaintext
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.enc.Decode(back.Value, back.Scale), v); e > 1e-9 {
		t.Fatalf("plaintext round trip error %g", e)
	}
}

func TestSerializationRejectsCorruption(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(83))
	ct := tc.encryptVec(t, randomComplex(r, 4, 1))
	data, _ := ct.MarshalBinary()

	var back Ciphertext
	if err := back.UnmarshalBinary(data[:len(data)/2]); err == nil {
		t.Fatal("truncated data must be rejected")
	}
	if err := back.UnmarshalBinary(append(data, 0)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
	bad := append([]byte{}, data...)
	bad[8+4] ^= 0xFF // corrupt the first polynomial's magic
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	var sk SecretKey
	if err := sk.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatal("short secret key must be rejected")
	}
	var swk SwitchingKey
	if err := swk.UnmarshalBinary([]byte{255, 255, 255, 255}); err == nil {
		t.Fatal("implausible digit count must be rejected")
	}
}

func TestEvaluationKeySetSerialization(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1, 5, 9})
	tc.kgen.GenConjugationKey(tc.sk, tc.keys)

	data, err := tc.keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back EvaluationKeySet
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Rlk == nil || len(back.Gal) != len(tc.keys.Gal) {
		t.Fatalf("key set shape lost: rlk=%v gal=%d/%d", back.Rlk != nil, len(back.Gal), len(tc.keys.Gal))
	}

	// An evaluator over the deserialized set must rotate correctly.
	ev := NewEvaluator(tc.params, &back)
	r := rand.New(rand.NewSource(84))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)
	rot, err := ev.Rotate(ct, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[(i+5)%len(v)]
	}
	if e := maxErr(tc.decryptVec(rot), want); e > 1e-5 {
		t.Fatalf("rotation with deserialized keys error %g", e)
	}

	// Empty set round trip.
	empty := NewEvaluationKeySet()
	d2, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back2 EvaluationKeySet
	if err := back2.UnmarshalBinary(d2); err != nil {
		t.Fatal(err)
	}
	if back2.Rlk != nil || len(back2.Gal) != 0 {
		t.Fatal("empty set not preserved")
	}
}

// TestSwitchingKeyRejectsBandSection: older encoders appended a section of
// extra digit sets ("bands") after a key's digits — a band count, then per
// band its (alpha, width, digits) header and digit polynomials. A key has one
// gadget shape now, so such a blob is an error, from the key decoder and from
// the key-set decoder around it, never a panic.
func TestSwitchingKeyRejectsBandSection(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	key := tc.keys.Rlk
	blob, err := key.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 1, 1, 1} { // one band: alpha 1, width 1, one digit
		blob = binary.LittleEndian.AppendUint32(blob, v)
	}
	for _, p := range []*ring.Poly{key.BQ[0], key.AQ[0], key.BP[0], key.AP[0]} {
		if blob, err = appendPoly(blob, p); err != nil {
			t.Fatal(err)
		}
	}
	var back SwitchingKey
	if err := back.UnmarshalBinary(blob); err == nil {
		t.Fatal("switching key with a band section decoded")
	}
	set := binary.LittleEndian.AppendUint32(appendChunk([]byte{1}, blob), 0)
	if err := (&EvaluationKeySet{}).UnmarshalBinary(set); err == nil {
		t.Fatal("key set whose relinearization key has a band section decoded")
	}
}
