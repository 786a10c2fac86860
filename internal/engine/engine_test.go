package engine

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// testClient is the client side of a serving session: it owns the secret
// key and encrypts/decrypts locally; only evaluation keys go to the engine.
type testClient struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	sk     *ckks.SecretKey
	keys   *ckks.EvaluationKeySet
}

func newTestClient(t testing.TB, rotations ...int) *testClient {
	t.Helper()
	params, err := ckks.NewParameters(ckks.TestParameters())
	if err != nil {
		t.Fatal(err)
	}
	kgen := ckks.NewKeyGenerator(params, 7)
	sk := kgen.GenSecretKey()
	keys := ckks.NewEvaluationKeySet()
	keys.Rlk = kgen.GenRelinearizationKey(sk)
	kgen.GenRotationKeys(sk, keys, rotations)
	return &testClient{
		params: params,
		enc:    ckks.NewEncoder(params),
		encr:   ckks.NewEncryptor(params, 8),
		decr:   ckks.NewDecryptor(params, sk),
		sk:     sk,
		keys:   keys,
	}
}

func (c *testClient) encrypt(t testing.TB, vals []complex128) *ckks.Ciphertext {
	t.Helper()
	ct, err := c.encr.EncodeEncryptNew(c.enc, vals, c.params.MaxLevel(), c.params.DefaultScale(), c.sk)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (c *testClient) decrypt(ct *ckks.Ciphertext) []complex128 {
	return c.decr.DecryptDecodeNew(ct, c.enc)
}

func checkSlots(t *testing.T, got, want []complex128, n int, tol float64, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if d := cmplxAbs(got[i] - want[i]); d > tol {
			t.Fatalf("%s: slot %d: got %v want %v (|Δ|=%g)", label, i, got[i], want[i], d)
		}
	}
}

func cmplxAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

func TestJobDAGRoundTrip(t *testing.T) {
	client := newTestClient(t, 1)
	e := New(Config{Workers: 2})
	defer e.Close()

	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}

	n := 8
	x := make([]complex128, n)
	y := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i)*0.1, 0)
		y[i] = complex(1.5-float64(i)*0.05, 0)
	}

	job, err := e.Submit(JobSpec{
		SessionID: sess.ID,
		Inputs: map[string]*ckks.Ciphertext{
			"x": client.encrypt(t, x),
			"y": client.encrypt(t, y),
		},
		Ops: []OpSpec{
			{ID: "m", Op: "mul", Args: []string{"x", "y"}},
			{ID: "r", Op: "rotate", Args: []string{"m"}, K: 1},
			{ID: "s", Op: "add", Args: []string{"r", "r"}},
		},
		Outputs: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}

	// Plaintext reference: 2 * rot1(x ⊙ y).
	slots := client.params.Slots()
	prod := make([]complex128, slots)
	for i := 0; i < n; i++ {
		prod[i] = x[i] * y[i]
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = 2 * prod[(i+1)%slots]
	}
	checkSlots(t, client.decrypt(outs["s"]), want, n-1, 1e-4, "2*rot1(x*y)")
}

func TestSubmitValidation(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	ct := client.encrypt(t, []complex128{1})
	in := map[string]*ckks.Ciphertext{"x": ct}

	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"no ops", JobSpec{SessionID: sess.ID, Inputs: in, Outputs: []string{"x"}}, "no ops"},
		{"unknown kind", JobSpec{SessionID: sess.ID, Inputs: in,
			Ops: []OpSpec{{ID: "a", Op: "frobnicate", Args: []string{"x"}}}, Outputs: []string{"a"}}, "unknown kind"},
		{"bad arity", JobSpec{SessionID: sess.ID, Inputs: in,
			Ops: []OpSpec{{ID: "a", Op: "add", Args: []string{"x"}}}, Outputs: []string{"a"}}, "want 2 args"},
		{"unknown ref", JobSpec{SessionID: sess.ID, Inputs: in,
			Ops: []OpSpec{{ID: "a", Op: "square", Args: []string{"zzz"}}}, Outputs: []string{"a"}}, "unknown name"},
		{"dup id", JobSpec{SessionID: sess.ID, Inputs: in,
			Ops: []OpSpec{{ID: "x", Op: "square", Args: []string{"x"}}}, Outputs: []string{"x"}}, "duplicate"},
		{"cycle", JobSpec{SessionID: sess.ID, Inputs: in,
			Ops: []OpSpec{
				{ID: "a", Op: "add", Args: []string{"b", "x"}},
				{ID: "b", Op: "add", Args: []string{"a", "x"}},
			}, Outputs: []string{"b"}}, "cycle"},
		{"output not op", JobSpec{SessionID: sess.ID, Inputs: in,
			Ops: []OpSpec{{ID: "a", Op: "square", Args: []string{"x"}}}, Outputs: []string{"x"}}, "not an op id"},
		{"bad session", JobSpec{SessionID: "nope", Inputs: in,
			Ops: []OpSpec{{ID: "a", Op: "square", Args: []string{"x"}}}, Outputs: []string{"a"}}, "unknown session"},
	}
	for _, tc := range cases {
		_, err := e.Submit(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSubmitRejectsNonFiniteConstants: a NaN or infinite constant is a spec
// error at Submit (the evaluator's fixed-point conversion would panic on it
// inside a worker), it admits nothing and borrows nothing, and the engine
// keeps serving.
func TestSubmitRejectsNonFiniteConstants(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1})}
	poolTraffic := func() float64 {
		var sum float64
		for name, v := range obs.Default.Snapshot().Counters {
			if strings.HasPrefix(name, "ring_pool_") {
				sum += v
			}
		}
		return sum
	}

	before := poolTraffic()
	for _, op := range []OpSpec{
		{ID: "a", Op: "addconst", Args: []string{"x"}, Val: math.NaN()},
		{ID: "a", Op: "mulconst", Args: []string{"x"}, Val: math.Inf(1)},
		{ID: "a", Op: "mulconst", Args: []string{"x"}, Val: math.Inf(-1)},
		{ID: "a", Op: "lincomb", Args: []string{"x", "x"}, Vals: []float64{1, math.NaN()}},
	} {
		_, err := e.Submit(JobSpec{SessionID: sess.ID, Inputs: in, Ops: []OpSpec{op}, Outputs: []string{"a"}})
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("%s with %v/%v: got error %v, want a not-finite spec error", op.Op, op.Val, op.Vals, err)
		}
	}
	if n := e.activeJobs.Load(); n != 0 {
		t.Errorf("%d jobs admitted by rejected submits", n)
	}
	if after := poolTraffic(); after != before {
		t.Errorf("ring pool traffic moved by %v across rejected submits", after-before)
	}

	job, err := e.Submit(JobSpec{SessionID: sess.ID, Inputs: in,
		Ops: []OpSpec{{ID: "a", Op: "addconst", Args: []string{"x"}, Val: 0.5}}, Outputs: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatalf("job after the rejected ones: %v", err)
	}
	outs, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	checkSlots(t, client.decrypt(outs["a"]), []complex128{1.5}, 1, 1e-6, "x + 0.5")
}

func TestBackpressure(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1, MaxActiveJobs: 2})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the admission budget artificially, then verify Submit sheds
	// load with a typed overload error that still unwraps to ErrBusy.
	e.activeJobs.Add(int64(e.cfg.MaxActiveJobs))
	_, err = e.Submit(JobSpec{
		SessionID: sess.ID,
		Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1})},
		Ops:       []OpSpec{{ID: "a", Op: "square", Args: []string{"x"}}},
		Outputs:   []string{"a"},
	})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("got %v, want ErrBusy", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("got %T, want *OverloadError", err)
	}
	if oe.Reason != "engine_full" || oe.RetryAfter <= 0 {
		t.Fatalf("overload error = %+v, want reason engine_full with positive RetryAfter", oe)
	}
	e.activeJobs.Add(-int64(e.cfg.MaxActiveJobs))
}

func TestJobDeadline(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(JobSpec{
		SessionID: sess.ID,
		Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1})},
		Ops:       []OpSpec{{ID: "a", Op: "square", Args: []string{"x"}}},
		Outputs:   []string{"a"},
		Deadline:  time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := job.Wait(context.Background())
	st, _ := job.Status()
	if st != StatusFailed || werr == nil {
		t.Fatalf("status=%s err=%v, want failed with deadline error", st, werr)
	}
}

func TestOpFailureFailsJob(t *testing.T) {
	client := newTestClient(t) // no rotation keys
	e := New(Config{Workers: 1})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(JobSpec{
		SessionID: sess.ID,
		Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1})},
		Ops: []OpSpec{
			{ID: "r", Op: "rotate", Args: []string{"x"}, K: 3}, // missing galois key
			{ID: "s", Op: "square", Args: []string{"r"}},
		},
		Outputs: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr := job.Wait(context.Background()); werr == nil {
		t.Fatal("want job failure from missing rotation key")
	}
	if _, rerr := job.Results(); rerr == nil {
		t.Fatal("Results on failed job must error")
	}
}

// TestLevelZeroOpsFailWithErrLevel: every op that ends in a rescale, handed a
// level-0 operand, fails its job with ckks.ErrLevel before it borrows — let
// alone half-writes — a pooled row, and leaves the input as it was.
func TestLevelZeroOpsFailWithErrLevel(t *testing.T) {
	client := newTestClient(t, 1)
	client.params.RingQ().PoisonPool()
	client.params.RingP().PoisonPool()
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	slots := client.params.Slots()
	diag := make([]complex128, slots)
	for i := range diag {
		diag[i] = 0.5
	}
	sess.RegisterTransform("shift", ckks.NewLinearTransform(slots, map[int][]complex128{0: diag, 1: diag}))
	x, err := ckks.NewEvaluator(client.params, client.keys).DropLevel(client.encrypt(t, []complex128{0.5, -0.25}), 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := x.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gets := func() float64 {
		return obs.Default.Counter(`ring_pool_gets_total{result="hit"}`).Value() +
			obs.Default.Counter(`ring_pool_gets_total{result="miss"}`).Value()
	}
	for _, op := range []OpSpec{
		{ID: "o", Op: "mul", Args: []string{"x", "x"}},
		{ID: "o", Op: "square", Args: []string{"x"}},
		{ID: "o", Op: "mulconst", Args: []string{"x"}, Val: 2},
		{ID: "o", Op: "lincomb", Args: []string{"x", "x"}, Vals: []float64{1, -2}},
		{ID: "o", Op: "lintrans", Args: []string{"x"}, Name: "shift"},
		{ID: "o", Op: "rescale", Args: []string{"x"}},
	} {
		gets0 := gets()
		job, err := e.Submit(JobSpec{SessionID: sess.ID, Inputs: map[string]*ckks.Ciphertext{"x": x}, Ops: []OpSpec{op}, Outputs: []string{"o"}})
		if err != nil {
			t.Fatal(err)
		}
		if werr := job.Wait(context.Background()); !errors.Is(werr, ckks.ErrLevel) {
			t.Errorf("%s on a level-0 operand: job error %v, want ckks.ErrLevel", op.Op, werr)
		}
		if n := gets() - gets0; n != 0 {
			t.Errorf("%s on a level-0 operand borrowed %v pooled polynomials before failing", op.Op, n)
		}
		if after, _ := x.MarshalBinary(); string(after) != string(before) {
			t.Fatalf("%s on a level-0 operand changed its input", op.Op)
		}
	}
}

// TestHostileDropLevel: a droplevel target outside the session's levels is
// refused at Submit (HTTP 400), and one inside them but above the operand's
// level fails the job, both with an error wrapping ckks.ErrLevel and before a
// pooled row is borrowed. The pools are poisoned, so a row handed back dirty
// would spoil the clean job that runs last.
func TestHostileDropLevel(t *testing.T) {
	client := newTestClient(t, 1)
	client.params.RingQ().PoisonPool()
	client.params.RingP().PoisonPool()
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	top := client.params.MaxLevel()
	x, err := ckks.NewEvaluator(client.params, client.keys).DropLevel(client.encrypt(t, []complex128{0.5, -0.25}), top-1)
	if err != nil {
		t.Fatal(err)
	}
	before, err := x.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	gets := func() float64 {
		return obs.Default.Counter(`ring_pool_gets_total{result="hit"}`).Value() +
			obs.Default.Counter(`ring_pool_gets_total{result="miss"}`).Value()
	}
	drop := func(k int) JobSpec {
		return JobSpec{SessionID: sess.ID, Inputs: map[string]*ckks.Ciphertext{"x": x},
			Ops: []OpSpec{{ID: "d", Op: "droplevel", Args: []string{"x"}, K: k}}, Outputs: []string{"d"}}
	}
	for _, k := range []int{-1, x.Level() + 1, 1 << 20} {
		gets0 := gets()
		job, err := e.Submit(drop(k))
		if (err == nil) != (k == x.Level()+1) {
			t.Errorf("droplevel to %d: Submit error %v; want one exactly for targets outside [0, %d]", k, err, top)
		}
		if err == nil {
			err = job.Wait(context.Background())
		}
		if !errors.Is(err, ckks.ErrLevel) {
			t.Errorf("droplevel to %d from level %d: error %v, want ckks.ErrLevel", k, x.Level(), err)
		}
		if n := gets() - gets0; n != 0 {
			t.Errorf("droplevel to %d borrowed %v pooled polynomials before failing", k, n)
		}
	}
	if after, _ := x.MarshalBinary(); !bytes.Equal(after, before) {
		t.Fatal("a failed droplevel changed its input")
	}
	body := fmt.Sprintf(`{"inputs":{"x":%q},"ops":[{"id":"d","op":"droplevel","args":["x"],"k":%d}],"outputs":["d"]}`,
		base64.StdEncoding.EncodeToString(before), 1<<20)
	if code, resp := doRequest(t, NewHTTPHandler(e), "POST", "/v1/sessions/"+sess.ID+"/jobs", body); code != http.StatusBadRequest {
		t.Errorf("POST droplevel to 2^20: %d %v, want 400", code, resp)
	}
	out := results(t, e, drop(0))
	checkSlots(t, client.decrypt(out["d"]), []complex128{0.5, -0.25}, 2, 1e-4, "droplevel to 0 after the hostile ones")
}

// TestHostileScales: add, sub and lincomb over operands whose scales differ
// fail with ckks.ErrScale before anything is borrowed — at admission where
// the operands are job inputs, so HTTP answers 400, and when the op runs where
// one is computed — leave their inputs' bytes alone, and a clean job runs
// after.
func TestHostileScales(t *testing.T) {
	client := newTestClient(t)
	client.params.RingQ().PoisonPool()
	client.params.RingP().PoisonPool()
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	x := client.encrypt(t, []complex128{0.5, -0.25})
	y := *x
	y.Scale *= 2
	inputs := map[string]*ckks.Ciphertext{"x": x, "y": &y}
	var wire [2][]byte
	for i, ct := range []*ckks.Ciphertext{x, &y} {
		if wire[i], err = ct.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	gets := func() float64 {
		return obs.Default.Counter(`ring_pool_gets_total{result="hit"}`).Value() +
			obs.Default.Counter(`ring_pool_gets_total{result="miss"}`).Value()
	}
	summing := []OpSpec{
		{ID: "s", Op: "add", Args: []string{"x", "y"}},
		{ID: "s", Op: "sub", Args: []string{"y", "x"}},
		{ID: "s", Op: "lincomb", Args: []string{"x", "y"}, Vals: []float64{1, 1}},
	}
	for _, op := range summing {
		gets0 := gets()
		_, err := e.Submit(JobSpec{SessionID: sess.ID, Inputs: inputs, Ops: []OpSpec{op}, Outputs: []string{"s"}})
		if !errors.Is(err, ckks.ErrScale) {
			t.Errorf("%s of inputs at scales %g and %g: Submit error %v, want ckks.ErrScale", op.Op, x.Scale, y.Scale, err)
		}
		if n := gets() - gets0; n != 0 {
			t.Errorf("%s: borrowed %v pooled polynomials before failing", op.Op, n)
		}
	}

	// A computed operand: the rescaled x against x itself. The failing op
	// borrows nothing beyond what the rescale before it does.
	rescaled := OpSpec{ID: "r", Op: "rescale", Args: []string{"x"}}
	gets0 := gets()
	results(t, e, JobSpec{SessionID: sess.ID, Inputs: inputs, Ops: []OpSpec{rescaled}, Outputs: []string{"r"}})
	rescaleGets := gets() - gets0
	for _, op := range summing {
		op.Args[0] = "r"
		if op.Op == "sub" {
			op.Args = []string{"x", "r"}
		}
		gets0 := gets()
		job, err := e.Submit(JobSpec{SessionID: sess.ID, Inputs: inputs, Ops: []OpSpec{rescaled, op}, Outputs: []string{"s"}})
		if err != nil {
			t.Fatalf("%s of a computed operand: Submit: %v", op.Op, err)
		}
		if err := job.Wait(context.Background()); !errors.Is(err, ckks.ErrScale) {
			t.Errorf("%s of x and rescale(x): error %v, want ckks.ErrScale", op.Op, err)
		}
		if n := gets() - gets0; n != rescaleGets {
			t.Errorf("%s of a computed operand borrowed %v pooled polynomials, the rescale alone %v", op.Op, n, rescaleGets)
		}
	}
	for i, ct := range []*ckks.Ciphertext{x, &y} {
		if after, _ := ct.MarshalBinary(); !bytes.Equal(after, wire[i]) {
			t.Fatal("a failed op changed its input")
		}
	}

	body := fmt.Sprintf(`{"inputs":{"x":%q,"y":%q},"ops":[{"id":"s","op":"add","args":["x","y"]}],"outputs":["s"]}`,
		base64.StdEncoding.EncodeToString(wire[0]), base64.StdEncoding.EncodeToString(wire[1]))
	if code, resp := doRequest(t, NewHTTPHandler(e), "POST", "/v1/sessions/"+sess.ID+"/jobs", body); code != http.StatusBadRequest {
		t.Errorf("POST add of mismatched scales: %d %v, want 400", code, resp)
	}
	out := results(t, e, JobSpec{SessionID: sess.ID, Inputs: inputs,
		Ops: []OpSpec{{ID: "s", Op: "add", Args: []string{"x", "x"}}}, Outputs: []string{"s"}})
	checkSlots(t, client.decrypt(out["s"]), []complex128{1, -0.5}, 2, 1e-4, "add after the hostile ones")
}

// TestSubmitRefusesMalformedInputs: an input that is not a ciphertext of
// the session's parameters — one limb above MaxLevel, half the ring degree, a
// coefficient-domain component, a residue at or above its q_i, a nil
// component — is refused by Submit with ckks.ErrShape as the argument of an op
// of every kind the engine knows (opArity), and over HTTP with a 400, before
// anything is borrowed, a goroutine started or a job exists. The client's
// rings are built at GOMAXPROCS 2, so at their pool width 2 the limbs of an
// add run on par workers, where such an input used to panic outside the
// engine's recover and end the process.
func TestSubmitRefusesMalformedInputs(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	client := newTestClient(t)
	runtime.GOMAXPROCS(prev)
	client.params.RingQ().PoisonPool()
	client.params.RingP().PoisonPool()
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	h := NewHTTPHandler(e)
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	x := client.encrypt(t, []complex128{0.5, -0.25})
	results(t, e, JobSpec{SessionID: sess.ID, Inputs: map[string]*ckks.Ciphertext{"x": x},
		Ops: []OpSpec{{ID: "s", Op: "add", Args: []string{"x", "x"}}}, Outputs: []string{"s"}}) // starts the pool
	gets := func() float64 {
		return obs.Default.Counter(`ring_pool_gets_total{result="hit"}`).Value() +
			obs.Default.Counter(`ring_pool_gets_total{result="miss"}`).Value()
	}
	// hostile returns a copy of x with edit applied to its component i.
	hostile := func(i int, edit func(p *ring.Poly) *ring.Poly) *ckks.Ciphertext {
		ct := x.CopyNew()
		c := &ct.C0
		if i == 1 {
			c = &ct.C1
		}
		*c = edit(*c)
		return ct
	}
	q1 := client.params.RingQ().Moduli[1].Q
	cases := map[string]*ckks.Ciphertext{
		"one limb above MaxLevel": hostile(0, func(p *ring.Poly) *ring.Poly {
			p.Coeffs = append(p.Coeffs, p.Coeffs[0])
			return p
		}),
		"half ring degree": hostile(0, func(p *ring.Poly) *ring.Poly {
			for i := range p.Coeffs {
				p.Coeffs[i] = p.Coeffs[i][:len(p.Coeffs[i])/2]
			}
			return p
		}),
		"coefficient-domain component": hostile(1, func(p *ring.Poly) *ring.Poly { p.IsNTT = false; return p }),
		"residue at q_1":               hostile(1, func(p *ring.Poly) *ring.Poly { p.Coeffs[1][3] = q1; return p }),
		"nil component":                hostile(1, func(*ring.Poly) *ring.Poly { return nil }),
	}
	// One op of every kind the engine admits, each on the hostile input.
	var ops []OpSpec
	for kind, arity := range opArity {
		op := OpSpec{ID: "s", Op: kind, Args: []string{"x"}}
		switch {
		case arity < 0:
			op.Args, op.Vals = []string{"x", "x"}, []float64{1, 1}
		case arity == 2:
			op.Args = []string{"x", "x"}
		}
		switch kind {
		case "rotate":
			op.K = 1
		case "addconst", "mulconst":
			op.Val = 0.5
		case "lintrans":
			op.Name = "shift"
		}
		ops = append(ops, op)
	}
	goroutines := runtime.NumGoroutine()
	for name, ct := range cases {
		for _, op := range ops {
			gets0 := gets()
			job, err := e.Submit(JobSpec{SessionID: sess.ID, Inputs: map[string]*ckks.Ciphertext{"x": ct}, Ops: []OpSpec{op}, Outputs: []string{"s"}})
			if !errors.Is(err, ckks.ErrShape) || job != nil {
				t.Errorf("%s of an input with %s: Submit error %v, job admitted %v; want ckks.ErrShape and no job", op.Op, name, err, job != nil)
			}
			if n := gets() - gets0; n != 0 {
				t.Errorf("%s of an input with %s: borrowed %v pooled polynomials", op.Op, name, n)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%s of an input with %s: %d goroutines, %d before", op.Op, name, n, goroutines)
			}
		}
		if ct.C1 == nil {
			continue // no wire form
		}
		wire, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"inputs":{"x":%q},"ops":[{"id":"s","op":"add","args":["x","x"]}],"outputs":["s"]}`,
			base64.StdEncoding.EncodeToString(wire))
		if code, resp := doRequest(t, h, "POST", "/v1/sessions/"+sess.ID+"/jobs", body); code != http.StatusBadRequest ||
			!strings.Contains(fmt.Sprint(resp["error"]), ckks.ErrShape.Error()) {
			t.Errorf("POST add of an input with %s: %d %v, want 400 naming the shape", name, code, resp)
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("refused jobs left %d goroutines, %d before", n, goroutines)
	}
	if n := e.activeJobs.Load(); n != 0 {
		t.Errorf("%d jobs admitted after the refusals", n)
	}
	out := results(t, e, JobSpec{SessionID: sess.ID, Inputs: map[string]*ckks.Ciphertext{"x": x},
		Ops: []OpSpec{{ID: "s", Op: "add", Args: []string{"x", "x"}}}, Outputs: []string{"s"}})
	checkSlots(t, client.decrypt(out["s"]), []complex128{1, -0.5}, 2, 1e-4, "add after the refusals")
}

// TestLintransMissingKeyFails: a session whose key set holds a transform's raw
// diagonal offsets but not its plan's giant rotations fails a lintrans job
// with ckks.ErrMissingKey, through Job.Wait.
func TestLintransMissingKeyFails(t *testing.T) {
	var offsets []int
	for d := 1; d < 32; d += 2 {
		offsets = append(offsets, d)
	}
	client := newTestClient(t, offsets...)
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	slots := client.params.Slots()
	diags := make(map[int][]complex128, len(offsets))
	for _, d := range offsets {
		diags[d] = make([]complex128, slots)
		diags[d][0] = 0.5
	}
	lt := ckks.NewLinearTransform(slots, diags)
	held := true
	for _, r := range ckks.GaloisKeysForLinearTransform(client.params, lt) {
		held = held && r%2 == 1
	}
	if held {
		t.Fatal("the plan needs only odd rotations, all of which the session holds")
	}
	sess.RegisterTransform("odd", lt)
	job, err := e.Submit(JobSpec{
		SessionID: sess.ID,
		Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{0.5})},
		Ops:       []OpSpec{{ID: "o", Op: "lintrans", Args: []string{"x"}, Name: "odd"}},
		Outputs:   []string{"o"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr := job.Wait(context.Background()); !errors.Is(werr, ckks.ErrMissingKey) {
		t.Errorf("lintrans without the plan's keys: job error %v, want ckks.ErrMissingKey", werr)
	}
}

// TestConcurrentJobs drives several jobs through one shared session at once
// and checks every result; run with -race this exercises the evaluator's
// concurrency safety through the engine path.
func TestConcurrentJobs(t *testing.T) {
	client := newTestClient(t, 1)
	e := New(Config{Workers: 4})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 4
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for k := 0; k < jobs; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := []complex128{complex(float64(k)+1, 0), complex(0.5, 0)}
			job, err := e.Submit(JobSpec{
				SessionID: sess.ID,
				Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, v)},
				Ops: []OpSpec{
					{ID: "sq", Op: "square", Args: []string{"x"}},
					{ID: "tw", Op: "add", Args: []string{"sq", "sq"}},
				},
				Outputs: []string{"tw"},
			})
			if err != nil {
				errs <- fmt.Errorf("job %d: %w", k, err)
				return
			}
			if err := job.Wait(context.Background()); err != nil {
				errs <- fmt.Errorf("job %d: %w", k, err)
				return
			}
			outs, err := job.Results()
			if err != nil {
				errs <- fmt.Errorf("job %d: %w", k, err)
				return
			}
			got := client.decrypt(outs["tw"])
			want := 2 * (float64(k) + 1) * (float64(k) + 1)
			if d := math.Abs(real(got[0]) - want); d > 1e-3 {
				errs <- fmt.Errorf("job %d: slot0 = %v, want %v", k, got[0], want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkEngineThroughput compares sequential submission against
// engine-concurrent execution of independent jobs — the acceptance demo
// that the worker-pool runtime sustains concurrent jobs with speedup on a
// multi-core host.
func BenchmarkEngineThroughput(b *testing.B) {
	client := newTestClient(b, 1)
	spec := func(sess *Session, ct *ckks.Ciphertext) JobSpec {
		return JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": ct},
			Ops: []OpSpec{
				{ID: "m", Op: "square", Args: []string{"x"}},
				{ID: "r", Op: "rotate", Args: []string{"m"}, K: 1},
			},
			Outputs: []string{"r"},
		}
	}
	ct := client.encrypt(b, []complex128{1, 2, 3, 4})
	const batch = 4

	b.Run("sequential", func(b *testing.B) {
		e := New(Config{Workers: 1})
		defer e.Close()
		sess, _ := e.AttachSession(client.params, client.keys)
		for i := 0; i < b.N; i++ {
			for k := 0; k < batch; k++ {
				job, err := e.Submit(spec(sess, ct))
				if err != nil {
					b.Fatal(err)
				}
				if err := job.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		e := New(Config{})
		defer e.Close()
		sess, _ := e.AttachSession(client.params, client.keys)
		for i := 0; i < b.N; i++ {
			jobs := make([]*Job, batch)
			for k := range jobs {
				job, err := e.Submit(spec(sess, ct))
				if err != nil {
					b.Fatal(err)
				}
				jobs[k] = job
			}
			for _, j := range jobs {
				if err := j.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
