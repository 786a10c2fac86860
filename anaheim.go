// Package anaheim is a from-scratch Go reproduction of "Anaheim:
// Architecture and Algorithms for Processing Fully Homomorphic Encryption in
// Memory" (HPCA 2025).
//
// It bundles two subsystems behind one facade:
//
//   - A functional RNS-CKKS library (encoding, encryption, evaluation,
//     hoisted linear transforms, full bootstrapping) — the FHE substrate the
//     paper's software framework builds on.
//
//   - A performance/energy simulator of the paper's hardware study: a
//     roofline GPU model (A100 80GB, RTX 4090), a DRAM bank-timing model,
//     and the Anaheim PIM unit (Table II ISA, column-partitioning layout,
//     Alg 1 execution), orchestrated by the §V co-execution framework.
//
// Context provides encrypted computation; Simulate and the Experiment
// helpers regenerate the paper's tables and figures.
//
// Every Context operation returns a ciphertext of its own. A loop that keeps
// only its latest value can hand the one it replaces back to the context's
// buffer pool, and then runs without allocating polynomials:
//
//	acc := ctx.Mul(ct, ct)
//	for i := 0; i < rounds; i++ {
//		next := ctx.Mul(acc, ct)
//		ctx.Release(acc) // optional, and final: acc must not be used again
//		acc = next
//	}
package anaheim

import (
	"crypto/rand"
	"fmt"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/engine"
	"github.com/anaheim-sim/anaheim/internal/experiments"
	"github.com/anaheim-sim/anaheim/internal/report"
	"github.com/anaheim-sim/anaheim/internal/sched"
	"github.com/anaheim-sim/anaheim/internal/trace"
	"github.com/anaheim-sim/anaheim/internal/workloads"
)

// Re-exported FHE types (the public API of the functional library).
type (
	// ParametersLiteral describes a CKKS parameter set.
	ParametersLiteral = ckks.ParametersLiteral
	// Parameters is a compiled parameter set.
	Parameters = ckks.Parameters
	// Ciphertext is an encrypted slot vector.
	Ciphertext = ckks.Ciphertext
	// Plaintext is an encoded slot vector.
	Plaintext = ckks.Plaintext
	// LinearTransform is a diagonal-form slot-space linear map.
	LinearTransform = ckks.LinearTransform
	// BootstrapConfig selects bootstrapping hyper-parameters.
	BootstrapConfig = ckks.BootstrapConfig
	// EvaluationKeySet bundles the relinearization and Galois keys a server
	// needs to evaluate on a client's ciphertexts.
	EvaluationKeySet = ckks.EvaluationKeySet

	// Engine is the concurrent serving runtime (session manager, job DAG
	// scheduler, bounded worker pool). See internal/engine.
	Engine = engine.Engine
	// EngineConfig sizes the serving runtime.
	EngineConfig = engine.Config
	// EngineSession is one client's serving context inside an Engine.
	EngineSession = engine.Session
	// JobSpec describes an encrypted-compute job (op DAG over ciphertexts).
	JobSpec = engine.JobSpec
	// OpSpec is one node of a job's op DAG.
	OpSpec = engine.OpSpec
	// Job is a submitted job handle.
	Job = engine.Job
)

// NewEngine starts a serving runtime. Close it when done.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// NewLinearTransform builds a diagonal-form linear map over the given slot
// count.
func NewLinearTransform(slots int, diags map[int][]complex128) *LinearTransform {
	return ckks.NewLinearTransform(slots, diags)
}

// TestParameters returns a small, fast, insecure parameter set.
func TestParameters() ParametersLiteral { return ckks.TestParameters() }

// BootParameters returns an insecure parameter set with enough modulus
// budget for bootstrapping.
func BootParameters() ParametersLiteral { return ckks.BootTestParameters() }

// Context owns a key set and the engines for encrypted computation.
//
// A Context is safe for concurrent use once its keys are in place:
// evaluation ops (Add/Mul/Rotate/...) and Decrypt may be called from many
// goroutines, and Encrypt draws its randomness from the encryptor's one
// keyed stream under the encryptor's mutex.
// Key-generation calls (GenRotationKeys, GenConjugationKey,
// SetupBootstrapping) mutate the shared key set and must complete before
// concurrent evaluation starts.
type Context struct {
	Params *Parameters

	enc  *ckks.Encoder
	kgen *ckks.KeyGenerator
	sk   *ckks.SecretKey
	pk   *ckks.PublicKey
	keys *ckks.EvaluationKeySet
	encr *ckks.Encryptor
	decr *ckks.Decryptor
	eval *ckks.Evaluator
	boot *ckks.Bootstrapper
}

// NewContext compiles parameters and generates the base keys (secret,
// public, relinearization). The seed is the master of every key and of the
// encryptor's stream, so the context is deterministic; it is not a secret
// drawn from crypto/rand, and a context for real data needs one that is
// (NewRandomContext).
func NewContext(lit ParametersLiteral, seed int64) (*Context, error) {
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	return newContext(params, ckks.NewKeyGenerator(params, seed), ckks.NewEncryptor(params, seed+1)), nil
}

// NewRandomContext is NewContext with its key master and its encryptor's
// stream seed, 32 bytes each, read from crypto/rand: the context for real
// data. Its keys and ciphertexts differ from one context to the next.
func NewRandomContext(lit ParametersLiteral) (*Context, error) {
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	var master, seed [32]byte
	if _, err := rand.Read(master[:]); err != nil {
		return nil, err
	}
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, err
	}
	return newContext(params, ckks.NewKeyGeneratorFromMaster(params, master), ckks.NewEncryptorFromSeed(params, seed)), nil
}

// newContext generates the base keys from kgen and binds the engines.
func newContext(params *Parameters, kgen *ckks.KeyGenerator, encr *ckks.Encryptor) *Context {
	c := &Context{Params: params, kgen: kgen, encr: encr}
	c.enc = ckks.NewEncoder(params)
	c.sk = c.kgen.GenSecretKey()
	c.pk = c.kgen.GenPublicKey(c.sk)
	c.keys = ckks.NewEvaluationKeySet()
	c.keys.Rlk = c.kgen.GenRelinearizationKey(c.sk)
	c.decr = ckks.NewDecryptor(params, c.sk)
	c.eval = ckks.NewEvaluator(params, c.keys)
	return c
}

// GenRotationKeys prepares top-level Galois keys for the given slot
// rotations, replacing a lower-level key SetupBootstrapping left for one.
func (c *Context) GenRotationKeys(rotations ...int) {
	c.kgen.GenRotationKeys(c.sk, c.keys, rotations)
}

// GenConjugationKey prepares the top-level complex-conjugation key.
func (c *Context) GenConjugationKey() { c.kgen.GenConjugationKey(c.sk, c.keys) }

// GenLinearTransformKeys prepares exactly the Galois keys the given linear
// transforms need: the baby + giant rotations of each transform's plan, which
// for the per-diagonal plan are the raw diagonal offsets. A transform not yet
// planned is planned alone and gets its leanest plan — the fewest keys, ties
// to the lower modeled time — which is the plan EvaluateLinearTransform then
// runs, here or on a server holding these keys. The keys are top-level ones,
// replacing any lower-level key of the set. The bootstrapper plans its own DFT
// matrices as one set instead (SetupBootstrapping).
func (c *Context) GenLinearTransformKeys(lts ...*LinearTransform) {
	c.kgen.GenRotationKeys(c.sk, c.keys, ckks.GaloisKeysForLinearTransform(c.Params, lts...))
}

// EvaluationKeys returns the context's evaluation key set — the material a
// client uploads to a server (relinearization + Galois keys, no secret).
func (c *Context) EvaluationKeys() *EvaluationKeySet { return c.keys }

// NewServerContext builds an evaluation-only Context from a client's
// uploaded evaluation keys: it can run Add/Mul/Rotate/linear transforms, and
// Bootstrap when the keys carry a bootstrap section (SetupBootstrapping on
// the client), but holds no secret or encryption key (Encrypt and Decrypt
// are unavailable). This is the trust model of the serving runtime: secrets
// stay client-side. A key without the parameters' shape is refused with an
// error wrapping ckks.ErrShape (Parameters.CheckKeys), and a bootstrap key
// set missing a key with one wrapping ckks.ErrMissingKey, instead of
// failing the first op.
func NewServerContext(lit ParametersLiteral, keys *EvaluationKeySet) (*Context, error) {
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	if err := params.CheckKeys(keys); err != nil {
		return nil, fmt.Errorf("anaheim: server context: %w", err)
	}
	c := &Context{Params: params, keys: keys}
	c.enc = ckks.NewEncoder(params)
	c.eval = ckks.NewEvaluator(params, keys)
	if keys.Boot != nil {
		if c.boot, err = ckks.NewBootstrapper(params, c.enc, c.eval, keys); err != nil {
			return nil, fmt.Errorf("anaheim: server context: %w", err)
		}
	}
	return c, nil
}

// AttachSession registers this context's parameters and evaluation keys as
// a session of the serving runtime and returns the session handle. After
// SetupBootstrapping the keys carry a bootstrap section, and the session
// builds its own bootstrapper from them.
func (c *Context) AttachSession(e *Engine) (*EngineSession, error) {
	return e.AttachSession(c.Params, c.keys)
}

// Encrypt encodes and encrypts a complex vector (at most N/2 values) at the
// top level and default scale. Safe for concurrent use.
func (c *Context) Encrypt(values []complex128) (*Ciphertext, error) {
	if c.encr == nil {
		return nil, fmt.Errorf("anaheim: server context has no encryption key")
	}
	return c.encr.EncodeEncryptNew(c.enc, values, c.Params.MaxLevel(), c.Params.DefaultScale(), c.pk)
}

// Decrypt returns the slot vector of a ciphertext. Safe for concurrent use.
func (c *Context) Decrypt(ct *Ciphertext) []complex128 {
	if c.decr == nil {
		panic("anaheim: server context holds no secret key and cannot decrypt")
	}
	return c.decr.DecryptDecodeNew(ct, c.enc)
}

// Encode produces a plaintext at the ciphertext's level for use with
// MulPlain.
func (c *Context) Encode(values []complex128, level int) (*Plaintext, error) {
	pt, err := c.enc.Encode(values, level, c.Params.DefaultScale())
	if err != nil {
		return nil, err
	}
	return &ckks.Plaintext{Value: pt, Scale: c.Params.DefaultScale()}, nil
}

// Add returns ct0 + ct1 (HADD).
func (c *Context) Add(ct0, ct1 *Ciphertext) *Ciphertext { return c.eval.Add(ct0, ct1) }

// Sub returns ct0 - ct1.
func (c *Context) Sub(ct0, ct1 *Ciphertext) *Ciphertext { return c.eval.Sub(ct0, ct1) }

// Release hands ciphertexts the caller is done with back to the context's
// buffer pool, so the next operation reuses their memory instead of
// allocating: in a loop that keeps only its latest result, release the
// previous one. Every operation returns a ciphertext of its own, sharing
// nothing with its operands. Releasing is optional — an unreleased result is
// ordinary garbage — and final: the ciphertext is emptied and must not be used
// again. Releasing nil, or the same ciphertext twice, does nothing.
func (c *Context) Release(cts ...*Ciphertext) { c.eval.Release(cts...) }

// must returns an evaluator op's result, panicking with its error instead.
func must(ct *Ciphertext, err error) *Ciphertext {
	if err != nil {
		panic(err)
	}
	return ct
}

// Mul returns ct0 ⊙ ct1 relinearized and rescaled (HMULT). It panics with
// ckks.ErrLevel on a level-0 operand; the evaluator's Mul returns that error
// instead.
func (c *Context) Mul(ct0, ct1 *Ciphertext) *Ciphertext { return must(c.eval.Mul(ct0, ct1)) }

// MulPlain returns ct ⊙ pt rescaled (PMULT). It panics with ckks.ErrLevel on
// a level-0 operand, like Mul.
func (c *Context) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return must(c.eval.MulPlain(ct, pt))
}

// AddConst adds a real constant to every slot.
func (c *Context) AddConst(ct *Ciphertext, v float64) *Ciphertext { return c.eval.AddConst(ct, v) }

// MulConst multiplies every slot by a real constant (one level). It panics
// with ckks.ErrLevel on a level-0 operand, like Mul.
func (c *Context) MulConst(ct *Ciphertext, v float64) *Ciphertext {
	return must(c.eval.MultConst(ct, v))
}

// Rotate cyclically rotates the slots by k (HROT); the rotation key must
// have been generated.
func (c *Context) Rotate(ct *Ciphertext, k int) (*Ciphertext, error) { return c.eval.Rotate(ct, k) }

// Conjugate returns the slot-wise complex conjugate.
func (c *Context) Conjugate(ct *Ciphertext) (*Ciphertext, error) { return c.eval.Conjugate(ct) }

// EvaluateLinearTransform applies a diagonal-form linear map, rescaled, as
// one double-hoisted sweep (§III-B, §V-B) under the map's planned baby step:
// ~bs + K/bs key switches off one shared ModUp. The plan's keys must exist —
// GenLinearTransformKeys generates them — or the error wraps
// ckks.ErrMissingKey.
func (c *Context) EvaluateLinearTransform(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, error) {
	return c.eval.EvaluateLinearTransform(ct, lt, c.enc)
}

// EvaluatePolynomial evaluates f(x) ≈ Chebyshev series of the given degree
// on [a, b] slot-wise. An operand below the levels the series consumes is an
// error wrapping ckks.ErrLevel.
func (c *Context) EvaluatePolynomial(ct *Ciphertext, f func(float64) float64, a, b float64, degree int) (*Ciphertext, error) {
	coeffs := ckks.ChebyshevInterpolation(f, a, b, degree)
	return c.eval.EvaluateChebyshev(ct, coeffs, a, b)
}

// MinMax returns the slot-wise minimum and maximum of two ciphertexts with
// values in [-1/2, 1/2] — the two-way comparator the Sort workload is built
// from ([35], §VII-A).
func (c *Context) MinMax(a, b *Ciphertext, iterations int) (*Ciphertext, *Ciphertext) {
	return c.eval.EvalMinMax(a, b, iterations)
}

// SetupBootstrapping runs both halves of bootstrapping setup: the client's
// GenBootstrapKeys adds every bootstrap key and the bootstrap section to the
// context's evaluation keys, and NewBootstrapper builds the bootstrapper from
// those keys alone, as a server does from the same keys uploaded. The DFT
// matrices are planned as one set: no more Galois keys than their leanest
// plans need between them, the least modeled time within that. Each key is
// generated at the highest level a bootstrap spends it, so a key the caller
// shares at a higher level comes from GenRotationKeys or
// GenLinearTransformKeys afterwards. A parameter set with fewer levels than
// the config consumes, or whose EvalMod primes cannot carry its scale, is an
// error (see BootParameters).
func (c *Context) SetupBootstrapping(cfg BootstrapConfig) error {
	if c.kgen == nil {
		return fmt.Errorf("anaheim: server context holds no secret key to generate bootstrap keys")
	}
	if err := c.kgen.GenBootstrapKeys(c.sk, c.keys, cfg); err != nil {
		return err
	}
	b, err := ckks.NewBootstrapper(c.Params, c.enc, c.eval, c.keys)
	if err != nil {
		return err
	}
	c.boot = b
	return nil
}

// DefaultBootstrapConfig returns the test-scale bootstrapping configuration.
func DefaultBootstrapConfig() BootstrapConfig { return ckks.DefaultBootstrapConfig() }

// Bootstrap refreshes an exhausted ciphertext to a high level.
func (c *Context) Bootstrap(ct *Ciphertext) (*Ciphertext, error) {
	if c.boot == nil {
		return nil, fmt.Errorf("anaheim: SetupBootstrapping has not been called")
	}
	return c.boot.Bootstrap(ct)
}

// DropToLevel discards limbs (used to emulate computation depth in demos). It
// panics with ckks.ErrLevel on a level outside [0, ct.Level()].
func (c *Context) DropToLevel(ct *Ciphertext, level int) *Ciphertext {
	return must(c.eval.DropLevel(ct, level))
}

// ---------------------------------------------------------------------------
// Simulation facade

// SimPlatform names a simulated hardware configuration.
type SimPlatform string

// Supported platforms (Table III).
const (
	A100          SimPlatform = "a100"
	A100NearBank  SimPlatform = "a100-nearbank"
	A100CustomHBM SimPlatform = "a100-customhbm"
	RTX4090       SimPlatform = "rtx4090"
	RTX4090PIM    SimPlatform = "rtx4090-nearbank"
)

// SimResult summarizes one simulated workload execution.
type SimResult struct {
	Workload  string
	Platform  SimPlatform
	TimeMs    float64
	EnergyMJ  float64
	EDP       float64
	EWShare   float64
	GPUDramGB float64
	PIMDramGB float64
	OoM       bool
}

// Workloads lists the simulatable workload names (§VII-A).
func Workloads() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	return out
}

// Simulate runs one workload on one platform at paper-scale parameters
// (Table IV) and returns the headline metrics.
func Simulate(workload string, platform SimPlatform) (SimResult, error) {
	w, ok := workloads.ByName(workload)
	if !ok {
		return SimResult{}, fmt.Errorf("anaheim: unknown workload %q (have %v)", workload, Workloads())
	}
	pl, err := experiments.PlatformByID(string(platform))
	if err != nil {
		return SimResult{}, fmt.Errorf("anaheim: %w", err)
	}
	p := trace.PaperParams()
	res := SimResult{Workload: workload, Platform: platform}
	if workloads.FootprintGB(workload, p) > pl.GPU.DRAM.CapacityGB {
		res.OoM = true
		return res, nil
	}
	r := sched.Run(w.Gen(p, pl.Options()), pl.Sched())
	res.TimeMs = r.TimeMs()
	res.EnergyMJ = r.EnergyMJ()
	res.EDP = r.EDP()
	res.EWShare = r.EWShare()
	res.GPUDramGB = r.GPUBytes / 1e9
	res.PIMDramGB = r.PIMBytes / 1e9
	return res, nil
}

// ExperimentIDs lists the reproducible paper artifacts plus the extension
// studies backing the paper's §V-C and §VI-D discussion points.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment regenerates one paper table/figure and returns its formatted
// text table.
func RunExperiment(id string) (string, error) { return runExperiment(id, (*report.Table).String) }

// RunExperimentCSV regenerates one experiment as CSV for plotting.
func RunExperimentCSV(id string) (string, error) { return runExperiment(id, (*report.Table).CSV) }

func runExperiment(id string, format func(*report.Table) string) (string, error) {
	e, ok := experiments.Lookup(id)
	if !ok {
		return "", fmt.Errorf("anaheim: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	return format(e.Table()), nil
}
