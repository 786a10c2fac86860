package engine

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
)

// HTTP/JSON front-end for the serving runtime, consumed by cmd/anaheim-serve.
// Binary FHE payloads (evaluation keys, ciphertexts) ride inside JSON as
// base64 of the internal/ckks wire format. The protocol is deliberately
// poll-based: submit a job, poll its status, fetch the result.
//
//	POST   /v1/sessions                     {preset|params, evalKeys}    -> {sessionId}
//	DELETE /v1/sessions/{sid}                                            -> {detached}
//	POST   /v1/sessions/{sid}/transforms    {name, diags}                -> {name}
//	POST   /v1/sessions/{sid}/jobs          {inputs, ops, outputs, tier} -> {jobId}
//	GET    /v1/jobs/{id}                                                 -> {status, error?}
//	GET    /v1/jobs/{id}/result                                          -> {outputs}
//	DELETE /v1/jobs/{id}                                                 -> {released}
//	GET    /healthz
//
// A job id answers 404 if it was never issued and 410 Gone once the engine
// has let go of the job: its result fetched (a fetch is one-shot), released
// by DELETE, or reaped by the retention bounds (Config.RetainedResultBytes /
// RetainFor) before anyone fetched it.
//
// Admission rejections are 429 with a Retry-After header (seconds, derived
// from the rejected tier's admitted jobs) and a JSON body carrying the
// machine-readable rejection reason.

type createSessionRequest struct {
	// Preset names a built-in parameter set ("test" or "boot"); Params
	// supplies an explicit literal instead.
	Preset string                  `json:"preset,omitempty"`
	Params *ckks.ParametersLiteral `json:"params,omitempty"`
	// EvalKeys is the base64 key set; the JSON decoder writes it straight
	// into bytes, so no base64 string of it ever exists.
	EvalKeys []byte `json:"evalKeys"`
}

type createSessionResponse struct {
	SessionID string `json:"sessionId"`
	LogN      int    `json:"logN"`
	MaxLevel  int    `json:"maxLevel"`
}

type registerTransformRequest struct {
	Name string `json:"name"`
	// Diags maps diagonal index -> per-slot [re, im] pairs.
	Diags map[string][][2]float64 `json:"diags"`
}

type submitJobRequest struct {
	Inputs     map[string]string `json:"inputs"` // name -> base64 ciphertext
	Ops        []OpSpec          `json:"ops"`
	Outputs    []string          `json:"outputs"`
	DeadlineMs int               `json:"deadlineMs,omitempty"`
	Tier       string            `json:"tier,omitempty"` // latency|standard|batch (default standard)
}

type jobStatusResponse struct {
	JobID  string `json:"jobId"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
}

type jobResultResponse struct {
	JobID   string            `json:"jobId"`
	Outputs map[string]string `json:"outputs"` // op id -> base64 ciphertext
}

// writeJSON writes a JSON response and returns the body's write error.
func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeJobError answers a failed job lookup: 410 for an id the engine issued
// and no longer holds, 404 for one it never issued.
func writeJobError(w http.ResponseWriter, err error) {
	code := http.StatusNotFound
	if errors.Is(err, ErrJobGone) {
		code = http.StatusGone
	}
	writeError(w, code, err)
}

// writeOverload maps a load-shed rejection to 429 with a Retry-After header
// and a machine-readable reason, so clients can back off instead of
// hammering a saturated tier.
func writeOverload(w http.ResponseWriter, err error) {
	retry, reason, tier := 1, "overloaded", ""
	var oe *OverloadError
	if errors.As(err, &oe) {
		if s := int(oe.RetryAfter.Seconds()); s > retry {
			retry = s
		}
		reason, tier = oe.Reason, oe.Tier
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":             err.Error(),
		"reason":            reason,
		"tier":              tier,
		"retryAfterSeconds": retry,
	})
}

// readBody reads a POST body under the engine's body-size cap. An oversized
// body gets 413, an unreadable one 400; either way the response has been
// written and the caller should return.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	return body, true
}

// writeBodyError answers a request whose body could not be read or decoded:
// 413 past the body-size cap, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
}

// decodeJSON decodes a request body into v as it is read, under the engine's
// body-size cap, without a copy of the body: 413 past the cap, 400 if it is
// malformed. It reports whether the caller should go on.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// decodeSubmitJob parses a submit-job request body into a JobSpec,
// decoding the base64 ciphertext inputs. It performs no I/O and never
// panics on malformed input (fuzzed by FuzzJobSpecDecode); full DAG
// validation happens at Submit.
func decodeSubmitJob(sid string, body []byte) (JobSpec, error) {
	var req submitJobRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return JobSpec{}, fmt.Errorf("bad request body: %w", err)
	}
	inputs := make(map[string]*ckks.Ciphertext, len(req.Inputs))
	for name, b64 := range req.Inputs {
		raw, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			return JobSpec{}, fmt.Errorf("input %q: %w", name, err)
		}
		ct := &ckks.Ciphertext{}
		if err := ct.UnmarshalBinary(raw); err != nil {
			return JobSpec{}, fmt.Errorf("input %q: %w", name, err)
		}
		inputs[name] = ct
	}
	return JobSpec{
		SessionID: sid,
		Inputs:    inputs,
		Ops:       req.Ops,
		Outputs:   req.Outputs,
		Deadline:  time.Duration(req.DeadlineMs) * time.Millisecond,
		Tier:      req.Tier,
	}, nil
}

// PresetParameters resolves a named parameter preset.
func PresetParameters(name string) (ckks.ParametersLiteral, error) {
	switch name {
	case "", "test":
		return ckks.TestParameters(), nil
	case "boot":
		return ckks.BootTestParameters(), nil
	default:
		return ckks.ParametersLiteral{}, fmt.Errorf("engine: unknown parameter preset %q", name)
	}
}

// NewHTTPHandler exposes the engine over HTTP/JSON.
func NewHTTPHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"workers": e.cfg.Workers,
			"active":  e.activeJobs.Load(),
		})
	})

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req createSessionRequest
		if !decodeJSON(w, r, e.cfg.MaxBodyBytes, &req) {
			return
		}
		lit := ckks.ParametersLiteral{}
		if req.Params != nil {
			lit = *req.Params
		} else {
			var err error
			if lit, err = PresetParameters(req.Preset); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		keys := &ckks.EvaluationKeySet{}
		err := keys.UnmarshalBinary(req.EvalKeys)
		req.EvalKeys = nil // the key set holds copies: drop the upload before the session is built
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("evalKeys: %w", err))
			return
		}
		params, err := ckks.NewParameters(lit)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		sess, err := e.AttachSession(params, keys)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, createSessionResponse{
			SessionID: sess.ID,
			LogN:      sess.Params.LogN(),
			MaxLevel:  sess.Params.MaxLevel(),
		})
	})

	mux.HandleFunc("DELETE /v1/sessions/{sid}", func(w http.ResponseWriter, r *http.Request) {
		sid := r.PathValue("sid")
		if !e.DetachSession(sid) {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown session"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"sessionId": sid, "status": "detached"})
	})

	mux.HandleFunc("POST /v1/sessions/{sid}/transforms", func(w http.ResponseWriter, r *http.Request) {
		sess, ok := e.Session(r.PathValue("sid"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown session"))
			return
		}
		var req registerTransformRequest
		if !decodeJSON(w, r, e.cfg.MaxBodyBytes, &req) {
			return
		}
		if req.Name == "" || len(req.Diags) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("transform needs a name and diagonals"))
			return
		}
		diags := make(map[int][]complex128, len(req.Diags))
		for k, vals := range req.Diags {
			idx, err := strconv.Atoi(k)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("diagonal index %q: %w", k, err))
				return
			}
			row := make([]complex128, len(vals))
			for i, v := range vals {
				row[i] = complex(v[0], v[1])
			}
			diags[idx] = row
		}
		sess.RegisterTransform(req.Name, ckks.NewLinearTransform(sess.Params.Slots(), diags))
		writeJSON(w, http.StatusOK, map[string]string{"name": req.Name})
	})

	mux.HandleFunc("POST /v1/sessions/{sid}/jobs", func(w http.ResponseWriter, r *http.Request) {
		// No session existence pre-check: Submit resolves and pins the session
		// itself and answers ErrUnknownSession, which maps to 404 below.
		body, ok := readBody(w, r, e.cfg.MaxBodyBytes)
		if !ok {
			return
		}
		spec, err := decodeSubmitJob(r.PathValue("sid"), body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		job, err := e.Submit(spec)
		switch {
		case errors.Is(err, ErrBusy):
			writeOverload(w, err)
			return
		case errors.Is(err, ErrUnknownSession):
			writeError(w, http.StatusNotFound, err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, jobStatusResponse{JobID: job.ID, Status: StatusQueued})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := e.Job(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		st, err := job.Status()
		resp := jobStatusResponse{JobID: job.ID, Status: st}
		if err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, err := e.Job(r.PathValue("id"))
		if err != nil {
			writeJobError(w, err)
			return
		}
		outs, err := job.results()
		if err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		resp := jobResultResponse{JobID: job.ID, Outputs: make(map[string]string, len(outs))}
		for name, ct := range outs {
			raw, err := ct.MarshalBinary()
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			resp.Outputs[name] = base64.StdEncoding.EncodeToString(raw)
		}
		// Delivered only once the whole body went out (the flush hands the
		// server's buffered tail to the connection): a failed transfer can retry.
		if writeJSON(w, http.StatusOK, resp) == nil && http.NewResponseController(w).Flush() == nil {
			e.deliver(job)
		}
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := e.Forget(id); err != nil {
			writeJobError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"jobId": id, "status": "released"})
	})

	return mux
}
