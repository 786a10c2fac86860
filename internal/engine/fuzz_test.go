package engine

import (
	"encoding/json"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ckks"
)

// FuzzJobSpecDecode feeds arbitrary bytes to the HTTP job-spec decoder —
// the exact function the POST /v1/sessions/{sid}/jobs handler calls on the
// request body after the size cap. The contract: malformed bodies error
// out, they never panic, and whatever decodes cleanly must also survive
// the admission-time DAG validation without panicking.
func FuzzJobSpecDecode(f *testing.F) {
	seed := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(map[string]any{
		"inputs": map[string]string{"x": "AAAA"},
		"ops": []map[string]any{
			{"id": "sq", "op": "square", "args": []string{"x"}},
			{"id": "r", "op": "rotate", "args": []string{"sq"}, "k": 1},
		},
		"outputs":    []string{"r"},
		"deadlineMs": 250,
	})
	seed(map[string]any{
		"inputs":  map[string]string{"x": "!!!not-base64!!!"},
		"ops":     []map[string]any{{"id": "a", "op": "add", "args": []string{"x", "x"}}},
		"outputs": []string{"a"},
	})
	seed(map[string]any{ // self-cycle: decode fine, validate must reject
		"ops":     []map[string]any{{"id": "a", "op": "add", "args": []string{"a", "a"}}},
		"outputs": []string{"a"},
	})
	for _, k := range []int64{-1, 1 << 40} { // droplevel targets admission must refuse
		seed(map[string]any{
			"ops":     []map[string]any{{"id": "d", "op": "droplevel", "args": []string{"x"}, "k": k}},
			"outputs": []string{"d"},
		})
	}
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"inputs":{"":""}}`))
	f.Add([]byte(`{"ops":[{"id":"x","op":"nope"}],"outputs":["x"]}`))

	params, err := ckks.NewParameters(ckks.TestParameters())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSubmitJob("sess-fuzz", data)
		if err != nil {
			return // malformed body rejected: expected
		}
		if spec.SessionID != "sess-fuzz" {
			t.Fatalf("session id not threaded through: %q", spec.SessionID)
		}
		// Decoded specs flow into validate() at Submit, under the session's
		// parameters; it must classify, not crash, whatever shape survived
		// JSON decoding.
		_, _ = validate(&spec, params)
	})
}
