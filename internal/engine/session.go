package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
)

// Session is one client's serving context: compiled parameters, the
// client-uploaded evaluation keys, the evaluator bound to them and, when the
// keys carry a bootstrap section, the bootstrapper built from them.
//
// Trust model: the server holds no secret material, for any op, bootstrap
// included. The client keeps the secret key and uploads only switching keys —
// relinearization, Galois and, for a session that bootstraps, the two
// encapsulation keys of its bootstrap section (made by GenBootstrapKeys in package ckks) — each
// an RLWE encryption under its secret, and ships ciphertexts; the server
// evaluates and never decrypts. What it checks of the upload is the keys'
// shape and, for a bootstrap section, that every key a bootstrap spends is
// present at its level; a key that passes but is wrong only spoils that
// client's own results.
//
// A Session is safe for concurrent use: the evaluator's lazy caches are
// internally locked, every op returns a result of its own, and the
// bootstrapper is fixed when the session is attached. The session mutex only
// serializes the transform map.
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
	boot     *ckks.Bootstrapper // nil unless Keys has a bootstrap section

	mu         sync.Mutex
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

// AttachSession registers a session over compiled parameters. A key that
// fails ckks.Parameters.CheckKeys is refused with an error wrapping
// ErrKeyShape and the ckks error. A key set with a bootstrap section gets the
// session's bootstrapper (ckks.NewBootstrapper), so a key a bootstrap would
// miss is refused here, wrapping ckks.ErrMissingKey, not at the first
// bootstrap. The session enters the key cache costed at its measured
// evaluation-key size — every switching key's digit polynomials over Q and
// P, 8 bytes per coefficient, and its seed — and under memory pressure the
// least recently used unpinned sessions are evicted to make room for it.
func (e *Engine) AttachSession(params *ckks.Parameters, keys *ckks.EvaluationKeySet) (*Session, error) {
	if err := params.CheckKeys(keys); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrKeyShape, err)
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
	if keys.Boot != nil {
		var err error
		if s.boot, err = ckks.NewBootstrapper(params, s.Enc, s.Eval, keys); err != nil {
			return nil, fmt.Errorf("engine: bootstrap keys: %w", err)
		}
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

// ErrKeyShape is wrapped by AttachSession, beside the ckks.ErrShape error
// naming the key, when a switching key does not have the session parameters'
// shape; the HTTP layer answers 400.
var ErrKeyShape = errors.New("engine: evaluation key does not match the session parameters")

// ErrUnknownSession is wrapped by Submit when the job names a session that
// is not resident (never attached, detached or evicted); the HTTP layer maps
// it to 404.
var ErrUnknownSession = errors.New("engine: unknown session")

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
	if scaleChecked[op.Op] {
		// The evaluator panics on mismatched scales (Add, Sub) or would
		// return the same error after resolving levels (MulConstAccum);
		// fail the op first, with nothing borrowed.
		if err := ckks.CheckScales(args...); err != nil {
			return nil, fmt.Errorf("engine: op %q (%s): %w", op.ID, op.Op, err)
		}
	}
	ev := s.Eval
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
		out, err = ev.MultConst(args[0], op.Val)
	case "lincomb":
		out, err = ev.MulConstAccum(args, op.Vals)
	case "rescale":
		out, err = ev.Rescale(args[0])
	case "droplevel":
		out, err = ev.DropLevel(args[0], op.K)
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
		if s.boot == nil {
			return nil, fmt.Errorf("%w: the session's key set has no bootstrap section", ckks.ErrMissingKey)
		}
		out, err = s.boot.Bootstrap(args[0])
	default:
		err = fmt.Errorf("engine: unknown op kind %q", op.Op)
	}
	return out, err
}
