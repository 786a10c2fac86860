package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// Session is one client's serving context: compiled parameters, the
// client-uploaded evaluation keys, and the evaluator bound to them. The
// server never holds secret material — clients keep the secret key, upload
// only relinearization/Galois keys, and ship ciphertexts.
//
// A Session is safe for concurrent use: the evaluator's lazy caches are
// internally locked and every op returns a result of its own. The session
// mutex only serializes the few stateful extras (bootstrapper, transform map).
//
// Sessions live in the engine's byte-bounded key cache, keyed by ID and
// costed by their evaluation-key size; cold sessions are evicted under
// memory pressure, and an evicted session is gone — the client attaches again.
type Session struct {
	ID      string
	Params  *ckks.Parameters
	Keys    *ckks.EvaluationKeySet
	Eval    *ckks.Evaluator
	Enc     *ckks.Encoder
	Created time.Time

	keyBytes int64

	mu         sync.Mutex
	boot       *ckks.Bootstrapper
	transforms map[string]*ckks.LinearTransform
}

// KeyBytes is the measured size of the session's evaluation-key material —
// the cost the key cache accounts this session at.
func (s *Session) KeyBytes() int64 { return s.keyBytes }

// release drops the session's references to its key material and evaluator
// so the (large) evaluation keys become collectable deterministically
// instead of waiting on cache churn. Only called once no job can still use
// the session (engine Close after the worker pool drained).
func (s *Session) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Keys = nil
	s.Eval = nil
	s.Enc = nil
	s.boot = nil
	s.transforms = nil
}

// CreateSession compiles a parameter literal, binds the client's evaluation
// keys, and registers the session.
func (e *Engine) CreateSession(lit ckks.ParametersLiteral, keys *ckks.EvaluationKeySet) (*Session, error) {
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	return e.AttachSession(params, keys)
}

// AttachSession registers a session over already-compiled parameters (the
// embedded path, where the caller owns a full local context). A key without
// the switching-key shape of its level under the parameters is refused with
// an error wrapping ErrKeyShape. The session enters the key cache costed at
// its measured evaluation-key size — every switching key's 2·D digit
// polynomials over Q and P, 8 bytes per coefficient — and under memory
// pressure the least recently used unpinned sessions are evicted to make
// room for it.
func (e *Engine) AttachSession(params *ckks.Parameters, keys *ckks.EvaluationKeySet) (*Session, error) {
	if keys == nil {
		return nil, fmt.Errorf("engine: session needs an evaluation key set")
	}
	if err := checkKeyShapes(params, keys); err != nil {
		return nil, err
	}
	s := &Session{
		ID:         fmt.Sprintf("sess-%d", e.seq.Add(1)),
		Params:     params,
		Keys:       keys,
		Eval:       ckks.NewEvaluator(params, keys),
		Enc:        ckks.NewEncoder(params),
		Created:    time.Now(),
		keyBytes:   keys.CoeffBytes(),
		transforms: make(map[string]*ckks.LinearTransform),
	}
	// Checked and inserted under one hold of e.mu, so Close — which sets
	// closed under it before it clears the cache — never leaves a session
	// behind. The cache's eviction hook only bumps a counter.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	e.sessions.Put(s.ID, s, s.keyBytes)
	return s, nil
}

// Session returns a resident session by ID.
func (e *Engine) Session(id string) (*Session, bool) {
	return e.sessions.Get(id)
}

// DetachSession removes a session and reports whether it was resident.
// Running jobs keep their pinned reference and finish normally; the
// session's key bytes just stop being accounted.
func (e *Engine) DetachSession(id string) bool {
	_, ok := e.sessions.Remove(id)
	return ok
}

// ErrKeyShape is wrapped by CreateSession and AttachSession when an uploaded
// switching key does not have the session parameters' shape; the HTTP layer
// answers 400. Such a key would otherwise fail inside a worker at first use.
var ErrKeyShape = errors.New("engine: evaluation key does not match the session parameters")

// checkKeyShapes checks every switching key in keys against the shape
// keygen gives a key at its level ℓ ≤ MaxLevel under params: D(ℓ) digits,
// each two NTT-domain B polynomials of N coefficients per row — ℓ+1 Q rows,
// α P rows — beside the key's seed, which regenerates the A half. A key
// below the level an op runs at is refused by that op with
// ckks.ErrMissingKey.
func checkKeyShapes(params *ckks.Parameters, keys *ckks.EvaluationKeySet) error {
	pRows := params.Alpha()
	polyOK := func(p *ring.Poly, rows int) bool {
		if p == nil || !p.IsNTT || len(p.Coeffs) != rows {
			return false
		}
		for _, row := range p.Coeffs {
			if len(row) != params.N() {
				return false
			}
		}
		return true
	}
	check := func(name string, k *ckks.SwitchingKey) error {
		if k == nil {
			return fmt.Errorf("%w: %s is missing", ErrKeyShape, name)
		}
		lvl := k.Level()
		if lvl < 0 || lvl > params.MaxLevel() {
			return fmt.Errorf("%w: %s is at level %d, want 0 to %d", ErrKeyShape, name, lvl, params.MaxLevel())
		}
		digits, qRows := params.Digits(lvl), lvl+1
		if len(k.BQ) != digits || len(k.BP) != digits {
			return fmt.Errorf("%w: %s has %d Q and %d P digits, want %d at level %d", ErrKeyShape, name, len(k.BQ), len(k.BP), digits, lvl)
		}
		for d := 0; d < digits; d++ {
			if !polyOK(k.BQ[d], qRows) || !polyOK(k.BP[d], pRows) {
				return fmt.Errorf("%w: %s digit %d is not %d Q and %d P NTT rows of %d coefficients",
					ErrKeyShape, name, d, qRows, pRows, params.N())
			}
		}
		return nil
	}
	if keys.Rlk != nil {
		if err := check("relinearization key", keys.Rlk); err != nil {
			return err
		}
	}
	for g, k := range keys.Gal {
		if err := check(fmt.Sprintf("Galois key %d", g), k); err != nil {
			return err
		}
	}
	return nil
}

// ErrUnknownSession is wrapped by Submit when the job names a session that
// is not resident (never attached, detached or evicted); the HTTP layer maps
// it to 404.
var ErrUnknownSession = errors.New("engine: unknown session")

// SetBootstrapper enables the "bootstrap" op for embedded sessions (the
// HTTP path cannot: constructing a bootstrapper requires the secret key).
func (s *Session) SetBootstrapper(b *ckks.Bootstrapper) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boot = b
}

// RegisterTransform names a linear transform for use by "lintrans" ops.
// The needed rotation keys must be present in the session's key set.
func (s *Session) RegisterTransform(name string, lt *ckks.LinearTransform) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.transforms[name] = lt
}

func (s *Session) transform(name string) (*ckks.LinearTransform, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lt, ok := s.transforms[name]
	return lt, ok
}

// evalOp executes one op spec against the session's evaluator, resolving
// argument names through arg. It is the single place the op vocabulary is
// given semantics — the scheduler path (executeTask) and the direct path the
// differential tests drive both go through it, so they cannot drift.
func (s *Session) evalOp(op *OpSpec, arg func(string) (*ckks.Ciphertext, error)) (*ckks.Ciphertext, error) {
	args := make([]*ckks.Ciphertext, len(op.Args))
	for i, a := range op.Args {
		ct, err := arg(a)
		if err != nil {
			return nil, err
		}
		args[i] = ct
	}
	ev := s.Eval
	// scaledDown rescales the constant product mul computes, checking first —
	// mul writes rows — that lvl, the level it lands on, has a prime to drop.
	scaledDown := func(lvl int, mul func(qd float64) *ckks.Ciphertext) (*ckks.Ciphertext, error) {
		if lvl == 0 {
			return nil, ckks.ErrLevel
		}
		prod := mul(float64(s.Params.RingQ().Moduli[lvl].Q))
		defer ev.Release(prod)
		return ev.Rescale(prod)
	}
	var out *ckks.Ciphertext
	var err error
	switch op.Op {
	case "add":
		out = ev.Add(args[0], args[1])
	case "sub":
		out = ev.Sub(args[0], args[1])
	case "mul":
		out, err = ev.Mul(args[0], args[1])
	case "square":
		out, err = ev.Square(args[0])
	case "rotate":
		out, err = ev.Rotate(args[0], op.K)
	case "conjugate":
		out, err = ev.Conjugate(args[0])
	case "addconst":
		out = ev.AddConst(args[0], op.Val)
	case "mulconst":
		out, err = scaledDown(args[0].Level(), func(qd float64) *ckks.Ciphertext {
			return ev.MultConst(args[0], op.Val, qd)
		})
	case "addn":
		out = ev.AddMany(args)
	case "lincomb":
		lvl := args[0].Level()
		for _, ct := range args[1:] {
			lvl = min(lvl, ct.Level())
		}
		out, err = scaledDown(lvl, func(qd float64) *ckks.Ciphertext {
			return ev.MulConstAccum(args, op.Vals, qd)
		})
	case "rescale":
		out, err = ev.Rescale(args[0])
	case "droplevel":
		out = ev.DropLevel(args[0], op.K)
	case "lintrans":
		lt, ok := s.transform(op.Name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown transform %q", op.Name)
		}
		// The transform's planned sweep, rescaled; a session whose key set
		// lacks the plan's baby or giant rotations fails with
		// ckks.ErrMissingKey.
		out, err = ev.EvaluateLinearTransform(args[0], lt, s.Enc)
	case "bootstrap":
		s.mu.Lock()
		boot := s.boot
		s.mu.Unlock()
		if boot == nil {
			return nil, fmt.Errorf("engine: session has no bootstrapper")
		}
		out, err = boot.Bootstrap(args[0])
	default:
		err = fmt.Errorf("engine: unknown op kind %q", op.Op)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
