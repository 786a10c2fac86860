package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anaheim-sim/anaheim"
)

func postJSON(t *testing.T, url string, req, resp any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return r
}

func getJSON(t *testing.T, url string, resp any) *http.Response {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return r
}

func getText(t *testing.T, url string) string {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, r.StatusCode)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServeRoundTrip runs the whole serving story over a real socket: a
// client context generates keys locally, uploads only the evaluation keys,
// ships encrypted inputs through the wire format, and decrypts the
// server-computed result.
func TestServeRoundTrip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serveConfig{addr: "127.0.0.1:0", workers: 2}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	base := "http://" + addr

	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz = %q", health.Status)
	}

	// Client side: full context with secret key, rotation key for k=1.
	client, err := anaheim.NewContext(anaheim.TestParameters(), 11)
	if err != nil {
		t.Fatal(err)
	}
	client.GenRotationKeys(1)
	keysRaw, err := client.EvaluationKeys().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var sess struct {
		SessionID string `json:"sessionId"`
		LogN      int    `json:"logN"`
	}
	postJSON(t, base+"/v1/sessions", map[string]string{
		"preset":   "test",
		"evalKeys": base64.StdEncoding.EncodeToString(keysRaw),
	}, &sess)
	if sess.SessionID == "" {
		t.Fatal("no session id")
	}

	u := []complex128{0.5, -1, 2, 0.25}
	cu, err := client.Encrypt(u)
	if err != nil {
		t.Fatal(err)
	}
	cuRaw, err := cu.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Job: r = rotate(x*x, 1).
	var submitted struct {
		JobID string `json:"jobId"`
	}
	postJSON(t, fmt.Sprintf("%s/v1/sessions/%s/jobs", base, sess.SessionID), map[string]any{
		"inputs": map[string]string{"x": base64.StdEncoding.EncodeToString(cuRaw)},
		"ops": []map[string]any{
			{"id": "sq", "op": "square", "args": []string{"x"}},
			{"id": "r", "op": "rotate", "args": []string{"sq"}, "k": 1},
		},
		"outputs": []string{"r"},
	}, &submitted)
	if submitted.JobID == "" {
		t.Fatal("no job id")
	}

	var status struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, base+"/v1/jobs/"+submitted.JobID, &status)
		if status.Status == "done" || status.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", status.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status.Status != "done" {
		t.Fatalf("job failed: %s", status.Error)
	}

	var result struct {
		Outputs map[string]string `json:"outputs"`
	}
	getJSON(t, base+"/v1/jobs/"+submitted.JobID+"/result", &result)
	// The fetch is one-shot: the job leaves the engine once the handler has
	// flushed the body, which can be a moment after the client read it.
	deadline = time.Now().Add(10 * time.Second)
	for code := http.StatusOK; code != http.StatusGone; {
		if code != http.StatusOK || time.Now().After(deadline) {
			t.Fatalf("GET /v1/jobs/%s after the fetch: %d, want 410", submitted.JobID, code)
		}
		time.Sleep(time.Millisecond)
		code = getJSON(t, base+"/v1/jobs/"+submitted.JobID, nil).StatusCode
	}
	if r := getJSON(t, base+"/v1/jobs/"+submitted.JobID+"/result", nil); r.StatusCode != http.StatusGone {
		t.Errorf("GET /v1/jobs/%s/result after the fetch: %d, want 410", submitted.JobID, r.StatusCode)
	}
	outRaw, err := base64.StdEncoding.DecodeString(result.Outputs["r"])
	if err != nil {
		t.Fatal(err)
	}
	out := &anaheim.Ciphertext{}
	if err := out.UnmarshalBinary(outRaw); err != nil {
		t.Fatal(err)
	}

	got := client.Decrypt(out)
	want := []complex128{1, 4, 0.0625} // (u[i+1])^2
	for i, w := range want {
		if d := got[i] - w; real(d)*real(d)+imag(d)*imag(d) > 1e-6 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], w)
		}
	}

	// After a completed job the metrics endpoint must show live counters:
	// the job was admitted, per-op counters ticked, and the latency
	// histograms carry observations.
	metrics := getText(t, base+"/metrics")
	for _, want := range []string{
		"engine_jobs_admitted_total",
		`engine_ops_total{op="square"}`,
		`engine_ops_total{op="rotate"}`,
		`ckks_ops_total{op="mul"}`,
		"engine_op_exec_seconds_bucket",
		"engine_op_queue_wait_seconds_count",
		"ring_pool_gets_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, re := range []string{
		`engine_jobs_admitted_total ([1-9][\d.e+]*)`,
		`engine_ops_total\{op="square"\} ([1-9][\d.e+]*)`,
	} {
		if !regexp.MustCompile(re).MatchString(metrics) {
			t.Errorf("/metrics counter not non-zero: %s in\n%s", re, metrics)
		}
	}

	spans := getText(t, base+"/debug/spans")
	if !strings.Contains(spans, "job") || !strings.Contains(spans, "op:square") {
		t.Errorf("/debug/spans missing job/op spans:\n%s", spans)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeBadRequests covers the error paths of the HTTP surface.
func TestServeBadRequests(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	go run(ctx, serveConfig{addr: "127.0.0.1:0", workers: 1}, ready)
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	base := "http://" + addr

	if r := postJSON(t, base+"/v1/sessions", map[string]string{"preset": "nope"}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad preset: status %d", r.StatusCode)
	}
	if r := postJSON(t, base+"/v1/sessions", map[string]string{"evalKeys": "!!!"}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad keys: status %d", r.StatusCode)
	}
	if r := postJSON(t, base+"/v1/sessions/nosuch/jobs", map[string]any{}, nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", r.StatusCode)
	}
	if r := getJSON(t, base+"/v1/jobs/nosuch", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", r.StatusCode)
	}
}

// TestServeBodyLimit verifies oversized request bodies are cut off with
// 413 before they reach the JSON decoder. The pprof side port is enabled
// here too, so its start/stop path runs under test.
func TestServeBodyLimit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	go run(ctx, serveConfig{
		addr:      "127.0.0.1:0",
		pprofAddr: "127.0.0.1:0",
		workers:   1,
		maxBody:   512,
	}, ready)
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	base := "http://" + addr

	// Every POST body goes through one capped reader: past the cap it is
	// 413 on each route, and a within-limit malformed body a plain 400 (the
	// jobs route reads the body before it looks up the session). The
	// oversized body is valid JSON, so only the cap can refuse it.
	big := `{"evalKeys":"` + strings.Repeat("a", 64<<10) + `"}`
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/sessions", big, http.StatusRequestEntityTooLarge},
		{"/v1/sessions", "{", http.StatusBadRequest},
		{"/v1/sessions/sess-1/jobs", big, http.StatusRequestEntityTooLarge},
		{"/v1/sessions/sess-1/jobs", "{", http.StatusBadRequest},
	} {
		r, err := http.Post(base+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var resp map[string]string
		json.NewDecoder(r.Body).Decode(&resp)
		r.Body.Close()
		if r.StatusCode != c.want {
			t.Errorf("POST %s with %d bytes: status %d %q, want %d", c.path, len(c.body), r.StatusCode, resp["error"], c.want)
		}
		if c.want == http.StatusRequestEntityTooLarge && resp["error"] != "request body exceeds 512 bytes" {
			t.Errorf("POST %s oversized: error %q", c.path, resp["error"])
		}
		if c.want == http.StatusBadRequest && !strings.HasPrefix(resp["error"], "bad request body: ") {
			t.Errorf("POST %s malformed: error %q", c.path, resp["error"])
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "1.2.3.4:99", "-workers", "3", "-deadline", "5s",
		"-retainbytes", "1048576", "-retainfor", "90s"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "1.2.3.4:99" || cfg.workers != 3 || cfg.deadline != 5*time.Second ||
		cfg.retainBytes != 1<<20 || cfg.retainFor != 90*time.Second {
		t.Fatalf("bad config: %+v", cfg)
	}
	for _, gone := range []string{"-bogus", "-queue"} {
		if _, err := parseFlags([]string{gone, "16"}); err == nil {
			t.Fatalf("want error for unknown flag %s", gone)
		}
	}
}

// TestServeSessionLifecycle covers DELETE /v1/sessions/{sid}: a detached
// session stops accepting jobs and a second delete is 404.
func TestServeSessionLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	go run(ctx, serveConfig{addr: "127.0.0.1:0", workers: 1}, ready)
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	base := "http://" + addr

	client, err := anaheim.NewContext(anaheim.TestParameters(), 11)
	if err != nil {
		t.Fatal(err)
	}
	keysRaw, err := client.EvaluationKeys().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		SessionID string `json:"sessionId"`
	}
	postJSON(t, base+"/v1/sessions", map[string]string{
		"preset":   "test",
		"evalKeys": base64.StdEncoding.EncodeToString(keysRaw),
	}, &sess)
	if sess.SessionID == "" {
		t.Fatal("no session id")
	}

	del := func() *http.Response {
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+sess.SessionID, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r
	}
	if r := del(); r.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d, want 200", r.StatusCode)
	}
	if r := del(); r.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", r.StatusCode)
	}
	if r := postJSON(t, base+"/v1/sessions/"+sess.SessionID+"/jobs", map[string]any{}, nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("job on detached session: status %d, want 404", r.StatusCode)
	}
}

// TestServeOverload verifies a saturated engine answers 429 with a
// Retry-After header and a machine-readable rejection reason, and that the
// capacity gauges are exported.
func TestServeOverload(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	// One worker, one admission slot, one job per tenant: trivially saturated.
	go run(ctx, serveConfig{addr: "127.0.0.1:0", workers: 1, maxJobs: 3, tenantJobs: 1}, ready)
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	base := "http://" + addr

	client, err := anaheim.NewContext(anaheim.TestParameters(), 11)
	if err != nil {
		t.Fatal(err)
	}
	client.GenRotationKeys(1)
	keysRaw, err := client.EvaluationKeys().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		SessionID string `json:"sessionId"`
	}
	postJSON(t, base+"/v1/sessions", map[string]string{
		"preset":   "test",
		"evalKeys": base64.StdEncoding.EncodeToString(keysRaw),
	}, &sess)

	cu, err := client.Encrypt([]complex128{1})
	if err != nil {
		t.Fatal(err)
	}
	cuRaw, err := cu.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// A long rotate chain: each hop key-switches but consumes no level, so
	// the single worker stays busy for tens of milliseconds — orders of
	// magnitude longer than the HTTP submit round trip that follows.
	ops := []map[string]any{{"id": "r0", "op": "rotate", "args": []string{"x"}, "k": 1}}
	for i := 1; i < 40; i++ {
		ops = append(ops, map[string]any{
			"id": fmt.Sprintf("r%d", i), "op": "rotate",
			"args": []string{fmt.Sprintf("r%d", i-1)}, "k": 1,
		})
	}
	job := map[string]any{
		"inputs":     map[string]string{"x": base64.StdEncoding.EncodeToString(cuRaw)},
		"ops":        ops,
		"outputs":    []string{fmt.Sprintf("r%d", len(ops)-1)},
		"deadlineMs": 60000,
	}
	// Keep submitting until the per-tenant cap rejects one; the first job's
	// rotate chain keeps the single worker busy long enough.
	// Fire a burst of pre-marshaled submits concurrently: the admission
	// calls land within the request-decode spread (milliseconds) while any
	// admitted job's rotate chain runs for tens of milliseconds, so the
	// per-tenant cap must reject at least one — no sequential timing
	// assumptions.
	raw := mustJSON(t, job)
	type submitResult struct {
		status     int
		retryAfter string
		body       []byte
	}
	const burst = 8
	results := make([]submitResult, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := http.Post(base+"/v1/sessions/"+sess.SessionID+"/jobs", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			defer r.Body.Close()
			b, _ := io.ReadAll(r.Body)
			results[i] = submitResult{status: r.StatusCode, retryAfter: r.Header.Get("Retry-After"), body: b}
		}(i)
	}
	wg.Wait()
	var rejected *submitResult
	var admitted int
	for i := range results {
		switch results[i].status {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			rejected = &results[i]
		default:
			t.Fatalf("submit %d: status %d: %s", i, results[i].status, results[i].body)
		}
	}
	if admitted == 0 {
		t.Fatal("no submit was admitted")
	}
	if rejected == nil {
		t.Fatalf("never saw a 429 despite tenantJobs=1 (%d admitted)", admitted)
	}
	if rejected.retryAfter == "" {
		t.Error("429 without Retry-After header")
	}
	var body struct {
		Reason            string `json:"reason"`
		Tier              string `json:"tier"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
	}
	if err := json.Unmarshal(rejected.body, &body); err != nil {
		t.Fatalf("429 body is not JSON: %v: %s", err, rejected.body)
	}
	if body.Reason == "" || body.Tier == "" || body.RetryAfterSeconds < 1 {
		t.Errorf("429 body missing fields: %+v", body)
	}

	// Serving-capacity gauge family is exported.
	metrics := getText(t, base+"/metrics")
	for _, want := range []string{
		"engine_sessions_live",
		"engine_evalkey_resident_bytes",
		`engine_tier_queue_depth{tier="latency"}`,
		`engine_tier_queue_depth{tier="standard"}`,
		`engine_tier_queue_depth{tier="batch"}`,
		`keycache_resident_bytes{cache="sessions"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
