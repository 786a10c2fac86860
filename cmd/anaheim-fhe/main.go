// Command anaheim-fhe is a file-based FHE workflow around the functional
// CKKS library: generate keys, encrypt a vector of reals, evaluate simple
// circuits on the ciphertext file, and decrypt — every artifact persisted
// through the library's binary serialization. keygen writes the secret key
// sk.bin and the relinearization key rlk.bin; encrypt and decrypt read
// sk.bin (the client holds the secret key and encrypts under it), eval reads
// rlk.bin alone.
//
//	anaheim-fhe keygen  -dir keys
//	anaheim-fhe encrypt -dir keys -values 1.5,2.5,-3 -out ct.bin
//	anaheim-fhe eval    -dir keys -op square -in ct.bin -out ct2.bin
//	anaheim-fhe decrypt -dir keys -in ct2.bin -n 3
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/anaheim-sim/anaheim/internal/ckks"
)

func params() *ckks.Parameters {
	p, err := ckks.NewParameters(ckks.TestParameters())
	if err != nil {
		panic(err)
	}
	return p
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "anaheim-fhe:", err)
		os.Exit(1)
	}
}

func writeFile(path string, m interface{ MarshalBinary() ([]byte, error) }) {
	data, err := m.MarshalBinary()
	die(err)
	die(os.WriteFile(path, data, 0o600))
}

func readFile(path string, m interface{ UnmarshalBinary([]byte) error }) {
	data, err := os.ReadFile(path)
	die(err)
	die(m.UnmarshalBinary(data))
}

// randomSeed draws a 32-byte key master or encryptor seed from crypto/rand,
// so no two installs share a secret key or an encryption stream.
func randomSeed() (seed [32]byte) {
	_, err := rand.Read(seed[:])
	die(err)
	return seed
}

func keygen(dir string) {
	die(os.MkdirAll(dir, 0o700))
	p := params()
	kg := ckks.NewKeyGeneratorFromMaster(p, randomSeed())
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	writeFile(filepath.Join(dir, "sk.bin"), sk)
	writeFile(filepath.Join(dir, "rlk.bin"), rlk)
	fmt.Printf("wrote sk.bin, rlk.bin to %s (N=%d, %d levels; DEMO parameters, not secure)\n",
		dir, p.N(), p.MaxLevel())
}

func encrypt(dir, valuesCSV, out string) {
	p := params()
	enc := ckks.NewEncoder(p)
	var sk ckks.SecretKey
	readFile(filepath.Join(dir, "sk.bin"), &sk)

	var vals []complex128
	for _, s := range strings.Split(valuesCSV, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		die(err)
		vals = append(vals, complex(f, 0))
	}
	ct, err := ckks.NewEncryptorFromSeed(p, randomSeed()).EncodeEncryptNew(enc, vals, p.MaxLevel(), p.DefaultScale(), &sk)
	die(err)
	writeFile(out, ct)
	fmt.Printf("encrypted %d values into %s (level %d)\n", len(vals), out, ct.Level())
}

func eval(dir, op, in, out string) {
	p := params()
	var rlk ckks.SwitchingKey
	readFile(filepath.Join(dir, "rlk.bin"), &rlk)
	keys := ckks.NewEvaluationKeySet()
	keys.Rlk = &rlk
	die(p.CheckKeys(keys))
	ev := ckks.NewEvaluator(p, keys)

	var ct ckks.Ciphertext
	readFile(in, &ct)
	die(p.CheckCiphertext(&ct))
	var res *ckks.Ciphertext
	var err error
	switch op {
	case "square":
		res, err = ev.Square(&ct)
		die(err)
	case "double":
		res = ev.Add(&ct, &ct)
	case "negate":
		res = ev.Neg(&ct)
	case "addone":
		res = ev.AddConst(&ct, 1)
	default:
		die(fmt.Errorf("unknown op %q (square, double, negate, addone)", op))
	}
	writeFile(out, res)
	fmt.Printf("evaluated %s: %s -> %s (level %d)\n", op, in, out, res.Level())
}

func decrypt(dir, in string, n int) {
	p := params()
	var sk ckks.SecretKey
	readFile(filepath.Join(dir, "sk.bin"), &sk)
	var ct ckks.Ciphertext
	readFile(in, &ct)
	vals := ckks.NewDecryptor(p, &sk).DecryptDecodeNew(&ct, ckks.NewEncoder(p))
	if n > len(vals) {
		n = len(vals)
	}
	for i := 0; i < n; i++ {
		fmt.Printf("slot[%d] = %.6f\n", i, real(vals[i]))
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: anaheim-fhe {keygen|encrypt|eval|decrypt} [flags]")
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", "keys", "key directory")
	switch cmd {
	case "keygen":
		die(fs.Parse(args))
		keygen(*dir)
	case "encrypt":
		values := fs.String("values", "", "comma-separated reals")
		out := fs.String("out", "ct.bin", "output ciphertext file")
		die(fs.Parse(args))
		encrypt(*dir, *values, *out)
	case "eval":
		op := fs.String("op", "square", "square | double | negate | addone")
		in := fs.String("in", "ct.bin", "input ciphertext file")
		out := fs.String("out", "ct-out.bin", "output ciphertext file")
		die(fs.Parse(args))
		eval(*dir, *op, *in, *out)
	case "decrypt":
		in := fs.String("in", "ct.bin", "input ciphertext file")
		n := fs.Int("n", 8, "slots to print")
		die(fs.Parse(args))
		decrypt(*dir, *in, *n)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		os.Exit(2)
	}
}
