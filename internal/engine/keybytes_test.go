package engine

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// rawPolysBytes recomputes a poly slice's coefficient payload from first
// principles — limbs × degree × 8 — independently of the CoeffBytes
// arithmetic inside the ckks package.
func rawPolysBytes(ps []*ring.Poly) int64 {
	var n int64
	for _, p := range ps {
		if len(p.Coeffs) > 0 {
			n += int64(len(p.Coeffs)) * int64(len(p.Coeffs[0])) * 8
		}
	}
	return n
}

func rawSwitchingKeyBytes(k *ckks.SwitchingKey) int64 {
	return rawPolysBytes(k.BQ) + rawPolysBytes(k.BP) + int64(len(k.Seed))
}

// TestSessionKeyBytesAccounting pins the size of a switching key and the
// cache-costing contract: every key is exactly D·(L+α)·N·8 + 32 bytes (D
// digits of a B polynomial over L Q limbs and α P limbs, and the 32-byte seed
// its uniform half expands from), and the bytes a session is accounted at
// equal an independent walk over every key's limb matrices. If keygen grows a
// key component without teaching CoeffBytes about it, this test catches the
// cache under-accounting.
func TestSessionKeyBytesAccounting(t *testing.T) {
	client := newTestClient(t, 1, 3)
	e := New(Config{Workers: 1})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}

	p := client.params
	l, alpha := int64(p.MaxLevel()+1), int64(p.Alpha())
	keyBytes := int64(p.Digits(p.MaxLevel()))*(l+alpha)*int64(p.N())*8 + 32
	var want int64
	keys := []*ckks.SwitchingKey{client.keys.Rlk}
	for _, k := range client.keys.Gal {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if got := k.CoeffBytes(); got != keyBytes {
			t.Fatalf("switching key holds %d bytes, want D·(L+α)·N·8 + 32 = %d", got, keyBytes)
		}
		want += rawSwitchingKeyBytes(k)
	}
	if got := sess.KeyBytes(); got != want {
		t.Fatalf("session accounted at %d bytes, independent sum is %d", got, want)
	}
	if got := e.sessions.Bytes(); got != want {
		t.Fatalf("key cache holds %d bytes, independent sum is %d", got, want)
	}

	// A bootstrap key set is accounted with its bootstrap section's
	// encapsulation pair, which the session's bootstrapper spends.
	boot := newBootClient(t)
	bk := boot.keys.Boot
	pair := rawSwitchingKeyBytes(bk.ToSparse) + rawSwitchingKeyBytes(bk.ToDense)
	bootWant := rawSwitchingKeyBytes(boot.keys.Rlk) + pair
	for _, k := range boot.keys.Gal {
		bootWant += rawSwitchingKeyBytes(k)
	}
	bootSess, err := e.AttachSession(boot.params, boot.keys)
	if err != nil {
		t.Fatal(err)
	}
	if got := bootSess.KeyBytes(); got != bootWant || pair == 0 {
		t.Fatalf("bootstrap session accounted at %d bytes, independent sum with the encapsulation pair is %d", got, bootWant)
	}
	if got := e.sessions.Bytes(); got != want+bootWant {
		t.Fatalf("key cache holds %d bytes, independent sum is %d", got, want+bootWant)
	}
}

// TestSessionRejectsMismatchedKeys: a key that does not have the session
// parameters' shape is refused when the session is created — ErrKeyShape
// embedded, 400 over HTTP — instead of failing inside a worker at first use,
// and the refusal leaves no session and no goroutine behind.
func TestSessionRejectsMismatchedKeys(t *testing.T) {
	client := newTestClient(t, 1)
	bootParams, err := ckks.NewParameters(ckks.BootTestParameters())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	e := New(Config{Workers: 1})
	h := NewHTTPHandler(e)

	// Keys made under the "test" preset, uploaded for a "boot" session.
	blob, err := client.keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := `{"preset":"boot","evalKeys":"` + base64.StdEncoding.EncodeToString(blob) + `"}`
	code, resp := doRequest(t, h, "POST", "/v1/sessions", body)
	if code != http.StatusBadRequest || !strings.Contains(resp["error"].(string), ErrKeyShape.Error()) {
		t.Fatalf("keys from another preset: %d %v, want 400 naming the key shape", code, resp)
	}

	// A relinearization key whose seed is one byte short fails to decode: a
	// 4xx naming the seed, not a panic.
	rlkBlob, err := client.keys.Rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := append(binary.LittleEndian.AppendUint32(nil, 31), rlkBlob[4:4+31]...)
	bad = append(bad, rlkBlob[4+32:]...)
	set := binary.LittleEndian.AppendUint32([]byte{1}, uint32(len(bad)))
	set = append(binary.LittleEndian.AppendUint32(append(set, bad...), 0), 0) // no Galois keys, no bootstrap section
	body = `{"preset":"test","evalKeys":"` + base64.StdEncoding.EncodeToString(set) + `"}`
	if code, resp := doRequest(t, h, "POST", "/v1/sessions", body); code/100 != 4 || !strings.Contains(fmt.Sprint(resp["error"]), "seed") {
		t.Fatalf("key with a 31-byte seed: %d %v, want a 4xx naming the seed", code, resp)
	}

	rlk := client.keys.Rlk
	notNTT := *rlk.BP[0]
	notNTT.IsNTT = false
	short := &ring.Poly{Coeffs: append([][]uint64{rlk.BQ[0].Coeffs[0][:client.params.N()-1]}, rlk.BQ[0].Coeffs[1:]...), IsNTT: true}
	for name, keys := range map[string]*ckks.EvaluationKeySet{
		"other parameters": client.keys,
		"missing digit":    {Rlk: &ckks.SwitchingKey{Seed: rlk.Seed, BQ: rlk.BQ[1:], BP: rlk.BP[1:]}},
		"digits disagree":  {Rlk: &ckks.SwitchingKey{Seed: rlk.Seed, BQ: rlk.BQ, BP: rlk.BP[1:]}},
		"missing B row":    {Rlk: &ckks.SwitchingKey{Seed: rlk.Seed, BQ: append([]*ring.Poly{nil}, rlk.BQ[1:]...), BP: rlk.BP}},
		"short B row":      {Rlk: &ckks.SwitchingKey{Seed: rlk.Seed, BQ: append([]*ring.Poly{short}, rlk.BQ[1:]...), BP: rlk.BP}},
		"missing key":      {Rlk: rlk, Gal: map[uint64]*ckks.SwitchingKey{5: nil}},
		"encapsulation key missing a digit": {Rlk: rlk, Boot: &ckks.BootstrapKeys{Config: ckks.DefaultBootstrapConfig(),
			ToDense: &ckks.SwitchingKey{Seed: rlk.Seed, BQ: rlk.BQ[1:], BP: rlk.BP[1:]}}},
		"coefficient-domain P row": {Rlk: &ckks.SwitchingKey{
			Seed: rlk.Seed, BQ: rlk.BQ, BP: append([]*ring.Poly{&notNTT}, rlk.BP[1:]...)}},
	} {
		params := client.params
		if name == "other parameters" {
			params = bootParams
		}
		if _, err := e.AttachSession(params, keys); !errors.Is(err, ErrKeyShape) {
			t.Errorf("%s: AttachSession returned %v, want ErrKeyShape", name, err)
		}
	}
	if n := e.sessions.Bytes(); n != 0 {
		t.Errorf("rejected sessions left %d key bytes in the cache", n)
	}

	e.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutine leak: %d after close, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// truncatedKey copies the level-lvl prefix of a switching key: D(lvl) digits
// of lvl+1 Q rows and every P row — the key keygen draws at that level.
func truncatedKey(params *ckks.Parameters, k *ckks.SwitchingKey, lvl int) *ckks.SwitchingKey {
	cut := func(ps []*ring.Poly, rows int) []*ring.Poly {
		out := make([]*ring.Poly, params.Digits(lvl))
		for d := range out {
			out[d] = &ring.Poly{Coeffs: make([][]uint64, rows), IsNTT: true}
			for i := range out[d].Coeffs {
				out[d].Coeffs[i] = append([]uint64(nil), ps[d].Coeffs[i]...)
			}
		}
		return out
	}
	a := params.Alpha()
	return &ckks.SwitchingKey{Seed: k.Seed, BQ: cut(k.BQ, lvl+1), BP: cut(k.BP, a)}
}

// TestSessionKeysAtTheirLevel: a session accepts a key at any level ℓ below
// the top that has that level's shape, and accounts it at its own size. A job
// that spends it at ℓ succeeds; one that spends it above ℓ fails with
// ckks.ErrMissingKey at Job.Wait — the evaluator's check, not a recovered
// panic — and its result answers 409 over HTTP.
func TestSessionKeysAtTheirLevel(t *testing.T) {
	client := newTestClient(t, 1)
	p := client.params
	lvl := p.MaxLevel() - 2
	g := p.RingQ().GaloisElement(1)
	low := truncatedKey(p, client.keys.Gal[g], lvl)
	keys := &ckks.EvaluationKeySet{Rlk: client.keys.Rlk, Gal: map[uint64]*ckks.SwitchingKey{g: low}}

	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	h := NewHTTPHandler(e)
	sess, err := e.AttachSession(p, keys)
	if err != nil {
		t.Fatalf("a key at level %d: %v", lvl, err)
	}
	lowBytes := int64(p.Digits(lvl))*int64(lvl+1+p.Alpha())*int64(p.N())*8 + 32
	if got, want := sess.KeyBytes(), rawSwitchingKeyBytes(client.keys.Rlk)+lowBytes; got != want || rawSwitchingKeyBytes(low) != lowBytes {
		t.Errorf("session accounted at %d bytes, want %d", got, want)
	}

	x := client.encrypt(t, []complex128{0.5, 0.25})
	rotate := func(level int) *Job {
		job, err := e.Submit(JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": x},
			Ops: []OpSpec{
				{ID: "d", Op: "droplevel", Args: []string{"x"}, K: level},
				{ID: "r", Op: "rotate", Args: []string{"d"}, K: 1},
			},
			Outputs: []string{"r"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	if err := rotate(lvl).Wait(context.Background()); err != nil {
		t.Errorf("rotation at the key's level %d: %v", lvl, err)
	}
	job := rotate(lvl + 1)
	werr := job.Wait(context.Background())
	if !errors.Is(werr, ckks.ErrMissingKey) || strings.Contains(werr.Error(), "panic") {
		t.Fatalf("rotation above the key's level: job error %v, want ckks.ErrMissingKey", werr)
	}
	if !strings.Contains(werr.Error(), fmt.Sprintf("at level %d does not cover level %d", lvl, lvl+1)) {
		t.Errorf("error %q does not name both levels", werr)
	}
	if code, _ := doRequest(t, h, "GET", "/v1/jobs/"+job.ID+"/result", ""); code != http.StatusConflict {
		t.Errorf("result of the failed job: HTTP %d, want 409", code)
	}
}
