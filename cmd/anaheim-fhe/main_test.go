package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ckks"
)

// End-to-end test of the file-based workflow: keygen -> encrypt -> eval ->
// decrypt, all through the serialized artifacts on disk.
func TestFileWorkflow(t *testing.T) {
	dir := t.TempDir()
	keys := filepath.Join(dir, "keys")
	ct1 := filepath.Join(dir, "ct.bin")
	ct2 := filepath.Join(dir, "ct2.bin")

	keygen(keys)
	encrypt(keys, "1.5, 2.5, -3", ct1)
	eval(keys, "square", ct1, ct2)

	// Decrypt through the library directly so we can assert values.
	p := params()
	var sk ckks.SecretKey
	readFile(filepath.Join(keys, "sk.bin"), &sk)
	var ct ckks.Ciphertext
	readFile(ct2, &ct)
	vals := ckks.NewEncoder(p).Decode(ckks.NewDecryptor(p, &sk).DecryptNew(&ct).Value, ct.Scale)
	want := []float64{2.25, 6.25, 9.0}
	for i, w := range want {
		if d := real(vals[i]) - w; d > 1e-4 || d < -1e-4 {
			t.Fatalf("slot %d: got %f want %f", i, real(vals[i]), w)
		}
	}

	// The other eval ops must run too.
	for _, op := range []string{"double", "negate", "addone"} {
		eval(keys, op, ct1, filepath.Join(dir, op+".bin"))
	}
}

// TestKeygenDrawsFreshKeys: keygen seeds from crypto/rand, so two runs write
// different secret keys.
func TestKeygenDrawsFreshKeys(t *testing.T) {
	var sks [2][]byte
	for i := range sks {
		dir := filepath.Join(t.TempDir(), "keys")
		keygen(dir)
		var err error
		if sks[i], err = os.ReadFile(filepath.Join(dir, "sk.bin")); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(sks[0], sks[1]) {
		t.Fatal("two keygen runs wrote the same sk.bin")
	}
}
