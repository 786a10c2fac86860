package engine

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

// bootClient is the client side of a session that bootstraps, under the
// "boot" preset: its key set is GenBootstrapKeys' output, built once for the
// package's tests. The secret key stays in its decryptor.
var bootClient = sync.OnceValues(func() (*testClient, error) {
	params, err := ckks.NewParameters(ckks.BootTestParameters())
	if err != nil {
		return nil, err
	}
	kgen := ckks.NewKeyGenerator(params, 7)
	sk := kgen.GenSecretKey()
	keys := ckks.NewEvaluationKeySet()
	if err := kgen.GenBootstrapKeys(sk, keys, ckks.DefaultBootstrapConfig()); err != nil {
		return nil, err
	}
	return &testClient{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, 8),
		decr:   ckks.NewDecryptor(params, sk),
		sk:     sk,
		keys:   keys,
	}, nil
})

func newBootClient(t *testing.T) *testClient {
	t.Helper()
	c, err := bootClient()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// postSession creates a session over HTTP from a preset and a key set,
// streaming the base64 keys into the request body instead of building it
// whole.
func postSession(t *testing.T, h http.Handler, preset string, keys *ckks.EvaluationKeySet) (int, map[string]any) {
	t.Helper()
	blob, err := keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("uploading a key set of %.1f MB, %.1f MB in base64", float64(len(blob))/1e6, float64(base64.StdEncoding.EncodedLen(len(blob)))/1e6)
	pr, pw := io.Pipe()
	go func() {
		io.WriteString(pw, `{"preset":"`+preset+`","evalKeys":"`)
		b64 := base64.NewEncoder(base64.StdEncoding, pw)
		b64.Write(blob)
		b64.Close()
		io.WriteString(pw, `"}`)
		pw.Close()
	}()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", pr))
	pr.Close()
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST /v1/sessions: status %d, body %q: %v", rec.Code, rec.Body.String(), err)
	}
	return rec.Code, out
}

// TestBootstrapOverHTTP: a session created over HTTP from GenBootstrapKeys'
// output — evaluation keys only, the secret never leaves the client — serves a
// bootstrap job, and the client decrypts its result at 15 bits or more on
// the worst slot. The key set is above the default body cap, so the engine is
// configured for it.
func TestBootstrapOverHTTP(t *testing.T) {
	if raceEnabled {
		t.Skip("uploading a bootstrap key set and bootstrapping take 15 s under the race detector")
	}
	client := newBootClient(t)
	p := client.params
	e := New(Config{Workers: 1, MaxBodyBytes: 256 << 20, Obs: obs.NewRegistry()})
	defer e.Close()
	h := NewHTTPHandler(e)

	code, resp := postSession(t, h, "boot", client.keys)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/sessions: %d %v", code, resp)
	}
	sid := resp["sessionId"].(string)

	r := rand.New(rand.NewSource(11))
	want := make([]complex128, p.Slots())
	for i := range want {
		want[i] = complex(r.Float64()*1.4-0.7, r.Float64()*1.4-0.7)
	}
	in, err := client.encr.EncodeEncryptNew(client.enc, want, 0, p.DefaultScale(), client.sk)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := `{"inputs":{"x":"` + base64.StdEncoding.EncodeToString(raw) + `"},` +
		`"ops":[{"id":"b","op":"bootstrap","args":["x"]}],"outputs":["b"]}`
	code, resp = doRequest(t, h, "POST", "/v1/sessions/"+sid+"/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("submit bootstrap: %d %v", code, resp)
	}
	id := resp["jobId"].(string)
	job, err := e.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatalf("bootstrap job: %v", err)
	}
	code, resp = doRequest(t, h, "GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: %d %v", code, resp)
	}
	out, err := base64.StdEncoding.DecodeString(resp["outputs"].(map[string]any)["b"].(string))
	if err != nil {
		t.Fatal(err)
	}
	var ct ckks.Ciphertext
	if err := ct.UnmarshalBinary(out); err != nil {
		t.Fatal(err)
	}
	if ct.Level() <= 0 {
		t.Fatalf("bootstrap output at level %d", ct.Level())
	}
	stats := ckks.ComputePrecision(client.decrypt(&ct), want)
	t.Logf("bootstrap over HTTP: level 0 -> %d, %s", ct.Level(), stats)
	if stats.MinBits < 15 {
		t.Fatalf("worst slot at %.2f bits, want >= 15", stats.MinBits)
	}
}

// TestAttachRefusesIncompleteBootstrapKeys: a key set with a bootstrap
// section that lacks a key a bootstrap spends — one DFT Galois key, an
// encapsulation key — is refused when the session is attached, wrapping
// ckks.ErrMissingKey (HTTP 400), not at the first bootstrap, and leaves no
// session behind.
func TestAttachRefusesIncompleteBootstrapKeys(t *testing.T) {
	client := newBootClient(t)
	p, keys := client.params, client.keys
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	h := NewHTTPHandler(e)

	conj := p.RingQ().GaloisElementConjugate()
	var dft uint64
	for g := range keys.Gal {
		if g != conj {
			dft = g
			break
		}
	}
	oneLess := maps.Clone(keys.Gal)
	delete(oneLess, dft)
	noDense := *keys.Boot
	noDense.ToDense = nil
	for name, ks := range map[string]*ckks.EvaluationKeySet{
		"one DFT key missing":          {Rlk: keys.Rlk, Gal: oneLess, Boot: keys.Boot},
		"an encapsulation key missing": {Rlk: keys.Rlk, Gal: keys.Gal, Boot: &noDense},
	} {
		if _, err := e.AttachSession(p, ks); !errors.Is(err, ckks.ErrMissingKey) {
			t.Errorf("%s: AttachSession returned %v, want ckks.ErrMissingKey", name, err)
		}
	}
	// Over HTTP, with sets small enough for the default body cap.
	for name, ks := range map[string]*ckks.EvaluationKeySet{
		"no Galois keys":        {Rlk: keys.Rlk, Boot: keys.Boot},
		"no encapsulation pair": {Rlk: keys.Rlk, Boot: &ckks.BootstrapKeys{Config: keys.Boot.Config}},
	} {
		code, resp := postSession(t, h, "boot", ks)
		if code != http.StatusBadRequest || !strings.Contains(resp["error"].(string), ckks.ErrMissingKey.Error()) {
			t.Errorf("%s: %d %v, want 400 naming the missing key", name, code, resp)
		}
	}
	if n := e.sessions.Bytes(); n != 0 {
		t.Errorf("refused sessions left %d key bytes in the cache", n)
	}
}
