package ckks

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ring"
)

// fuzzParameters is a deliberately tiny (insecure) parameter set: the wire
// format is shape-generic, and small seeds keep per-exec cost low so the
// fuzz engine gets real throughput on slow CI runners.
func fuzzParameters() ParametersLiteral {
	return ParametersLiteral{
		LogN:     5,
		LogQ:     []int{55, 45},
		LogP:     []int{58},
		LogScale: 45,
		HDense:   8,
		HSparse:  4,
	}
}

// fuzzSeedCiphertext builds one honestly-marshaled ciphertext to seed the
// corpus, memoized because key generation is the expensive part and the
// fuzz engine re-enters the seed path per worker.
var fuzzSeedCiphertext = sync.OnceValue(func() []byte {
	params, err := NewParameters(fuzzParameters())
	if err != nil {
		panic(err)
	}
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params, 1)
	sk := kgen.GenSecretKey()
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(float64(i%5)/4, -float64(i%3)/2)
	}
	ct, err := NewEncryptor(params, 2).EncodeEncryptNew(enc, v, params.MaxLevel(), params.DefaultScale(), sk)
	if err != nil {
		panic(err)
	}
	raw, err := ct.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return raw
})

// FuzzCiphertextUnmarshal feeds arbitrary bytes to the ciphertext wire
// decoder. The contract under fuzz: malformed input errors out — it never
// panics and never allocates unbounded memory (the ring layer caps poly
// shape before allocating). Anything that decodes cleanly must re-marshal
// to the identical bytes, and if it passes Parameters.CheckCiphertext, Add
// must take it.
func FuzzCiphertextUnmarshal(f *testing.F) {
	valid := fuzzSeedCiphertext()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-poly
	f.Add(valid[:11])           // truncated inside the first chunk header
	f.Add([]byte{})
	f.Add([]byte("not a ciphertext"))

	// Structurally valid framing with a hostile scale.
	evil := append([]byte{}, valid...)
	binary.LittleEndian.PutUint64(evil[:8], math.Float64bits(math.NaN()))
	f.Add(evil)

	// Huge claimed poly shape: must be rejected before allocation.
	huge := append([]byte{}, valid[:8]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f) // chunk length
	f.Add(huge)

	params, err := NewParameters(fuzzParameters())
	if err != nil {
		f.Fatal(err)
	}
	ev := NewEvaluator(params, NewEvaluationKeySet())
	f.Fuzz(func(t *testing.T, data []byte) {
		ct := &Ciphertext{}
		if err := ct.UnmarshalBinary(data); err != nil {
			return // rejected: that is the expected outcome for junk
		}
		// Accepted inputs must be internally consistent and round-trip.
		if ct.C0 == nil || ct.C1 == nil {
			t.Fatal("accepted ciphertext with nil component")
		}
		if !(ct.Scale > 0) || math.IsInf(ct.Scale, 0) {
			t.Fatalf("accepted non-finite/non-positive scale %v", ct.Scale)
		}
		if len(ct.C0.Coeffs) != len(ct.C1.Coeffs) {
			t.Fatalf("accepted mismatched limb counts %d vs %d", len(ct.C0.Coeffs), len(ct.C1.Coeffs))
		}
		out, err := ct.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted ciphertext fails to re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round-trip mismatch: %d bytes in, %d bytes out", len(data), len(out))
		}
		// A ciphertext the parameters' gate admits is one an op can take.
		if params.CheckCiphertext(ct) == nil {
			ev.Release(ev.Add(ct, ct))
		}
	})
}

// FuzzEvaluationKeySetUnmarshal covers the other untrusted decode surface
// of the HTTP session path: client-uploaded evaluation keys, down to the
// switching-key wire form (seed chunk, digit count, B rows). A key set that
// decodes must re-marshal to its bytes, and a key in it of the parameters'
// shape must serve a key switch at its level without a panic: the decoder
// lets no key through that the evaluator cannot take.
func FuzzEvaluationKeySetUnmarshal(f *testing.F) {
	params, err := NewParameters(fuzzParameters())
	if err != nil {
		f.Fatal(err)
	}
	kgen := NewKeyGenerator(params, 1)
	sk := kgen.GenSecretKey()
	keys := NewEvaluationKeySet()
	keys.Rlk = kgen.GenRelinearizationKey(sk)
	kgen.GenRotationKeys(sk, keys, []int{1})
	valid, err := keys.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{})
	f.Add([]byte{1}) // claims a relin key, then nothing
	rlk, err := keys.Rlk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	cfg := [5]uint32{3, 3, 31, 3, 12} // DefaultBootstrapConfig
	for _, k := range hostileKeys(f, keys.Rlk) {
		f.Add(keySetWire(k, nil))
		f.Add(keySetWire(nil, bootSectionWire(cfg, rlk, k)))
	}
	// Bootstrap sections: one that decodes (the relinearization key standing
	// in for both encapsulation keys), then a truncated and an implausible
	// config.
	section := bootSectionWire(cfg, rlk, rlk)
	f.Add(keySetWire(rlk, section))
	f.Add(keySetWire(nil, section[:bootConfigBytes-2]))
	f.Add(keySetWire(nil, bootSectionWire([5]uint32{3, 3, 1 << 31, 3, 12}, rlk, rlk)))

	// Claims 2^32-1 Galois keys: must fail on truncation, not allocate.
	greedy := []byte{0, 0xff, 0xff, 0xff, 0xff}
	f.Add(greedy)

	ev := NewEvaluator(params, keys)
	ct := encryptNew(NewEncryptor(params, 2), &Plaintext{Value: params.RingQ().NewPoly(params.MaxLevel()), Scale: params.DefaultScale()}, sk)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &EvaluationKeySet{}
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted key set fails to re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round-trip mismatch: %d bytes in, %d bytes out", len(data), len(out))
		}
		all := []*SwitchingKey{s.Rlk}
		if s.Boot != nil {
			all = append(all, s.Boot.ToSparse, s.Boot.ToDense)
		}
		for _, k := range s.Gal {
			all = append(all, k)
		}
		for _, k := range all {
			if k == nil {
				continue
			}
			lvl := k.Level()
			if lvl > params.MaxLevel() || len(k.BP[0].Coeffs) != params.Alpha() || len(k.BQ[0].Coeffs[0]) != params.N() {
				continue // another parameter set's shape: Parameters.CheckKeys refuses it
			}
			if _, err := ev.SwitchKeys(dropTo(ev, ct, lvl), k); err != nil {
				t.Fatalf("a decoded key of the parameters' shape failed its level's key switch: %v", err)
			}
		}
	})
}

// hostileKeys returns wire forms of k that a generator cannot produce: a seed
// one byte short and one byte long, a digit count one short of the level's,
// a last B row missing, and a digit with one Q row fewer than the others.
func hostileKeys(t testing.TB, k *SwitchingKey) map[string][]byte {
	t.Helper()
	digits := func(seed []byte, n int, polys ...*ring.Poly) []byte {
		b := binary.LittleEndian.AppendUint32(appendChunk(nil, seed), uint32(n))
		var err error
		for _, p := range polys {
			if b, err = appendPoly(b, p); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	var rows []*ring.Poly
	for d := range k.BQ {
		rows = append(rows, k.BQ[d], k.BP[d])
	}
	d := len(k.BQ)
	short := k.BQ[d-1].Truncated(k.BQ[d-1].Level() - 1)
	return map[string][]byte{
		"seed short":      digits(k.Seed[:31], d, rows...),
		"seed long":       digits(append(k.Seed[:], 0), d, rows...),
		"digits disagree": digits(k.Seed[:], d-1, rows[:2*d-2]...),
		"B row missing":   digits(k.Seed[:], d, rows[:2*d-1]...),
		"B row short":     digits(k.Seed[:], d, append(rows[:2*d-2:2*d-2], short, rows[2*d-1])...),
	}
}
