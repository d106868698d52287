package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"qwm/internal/api/v1"
)

// refDecode is the two-pass decode decodeEnvelope replaced, kept as its
// reference: a probe for the "requests" key, then a full decode of the
// body as a BatchRequest or as an AnalyzeRequest.
func refDecode(body []byte) (*v1.AnalyzeRequest, *v1.BatchRequest, error) {
	var probe struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, nil, err
	}
	if probe.Requests != nil {
		var breq v1.BatchRequest
		if err := json.Unmarshal(body, &breq); err != nil {
			return nil, nil, err
		}
		return nil, &breq, nil
	}
	var req v1.AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	return &req, nil, nil
}

// checkEnvelope compares decodeEnvelope with the reference on a body the
// reference accepts: same classification, same decoded values. The one
// intended difference is a batch whose top-level single-request fields are
// ill-typed, which decodeEnvelope rejects.
func checkEnvelope(t *testing.T, body []byte) {
	t.Helper()
	rs, rb, rerr := refDecode(body)
	req, breq, err := decodeEnvelope(body)
	if rerr != nil {
		return
	}
	switch {
	case rb != nil && err != nil:
		var single v1.AnalyzeRequest
		if json.Unmarshal(body, &single) == nil {
			t.Fatalf("batch body %q rejected although its single-request fields are well-typed: %v", body, err)
		}
	case err != nil:
		t.Fatalf("body %q rejected: %v; the reference accepts it", body, err)
	case rb != nil && breq == nil:
		t.Fatalf("batch body %q decoded as a single request", body)
	case rb != nil && !reflect.DeepEqual(*breq, *rb):
		t.Fatalf("body %q: batch %+v, reference %+v", body, *breq, *rb)
	case rb == nil && breq != nil:
		t.Fatalf("single body %q decoded as a batch", body)
	case rb == nil && !reflect.DeepEqual(req, *rs):
		t.Fatalf("body %q: request %+v, reference %+v", body, req, *rs)
	}
}

// FuzzDecodeEnvelope runs decodeEnvelope against the two-pass reference on
// arbitrary bodies.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, seed := range []string{
		`{"netlist":"t\nR1 a 0 1\n","outputs":["a"],"inputs":{"in":{"rise":1e-12}}}`,
		`{"requests":null,"id":"x","async":"yes"}`,
		`{"requests":[],"schema_version":"qwm.v1"}`,
		`{"async":true,"requests":[{"id":"a","netlist":"n","outputs":["y"]},{"features":{"memo":true}}]}`,
		`{"requests":[{"outputs":5}]}`,
		`{"requests":[5],"requests":null,"netlist":"n"}`,
		`{"requests":[{"id":"a","budget":{"nr_iters":3}}],"outputs":5}`,
		`{"Requests":[{"chaos":{"seed":1,"classes":["panic"]}}],"ASYNC":false,"Id":"b"}`,
		`{"requests":5}`, `null`, `[]`, `{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkEnvelope(t, body)
	})
}

// TestDecodeEnvelopeMatchesReference runs the fuzz seeds' checks in the
// plain test run, including the duplicate-key and case-folded-key bodies.
func TestDecodeEnvelopeMatchesReference(t *testing.T) {
	for _, body := range []string{
		`{"netlist":"n","outputs":["a"],"requests":null}`,
		`{"netlist":"n","async":{"x":1}}`,
		`{"requests":[{"id":"a","netlist":"x"}],"requests":[{"id":"b"}]}`,
		`{"requests":[{"inputs":{"a":{}}}],"requests":[{"inputs":{"b":{}}}]}`,
		`{"requests":[{"id":1}],"requests":null}`,
		`{"requests":[],"async":"no"}`,
		`{"REQUESTS":[{"id":"a"}],"Async":true}`,
	} {
		checkEnvelope(t, []byte(body))
	}
}

// TestAnalyzeEnvelopeStatus pins the HTTP status and v1 error code of each
// way a body can be classified. Every row but "batch with ill-typed
// single-request field" answers as the two-pass decode did; that one was a
// 202 or 200 (the batch ignored the field) and is now a 400, because the
// body is decoded as one value.
func TestAnalyzeEnvelopeStatus(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	_, hs := newTestServer(t, Options{})
	single := fmt.Sprintf(`"netlist":%q,"outputs":[%q]`, deck, outs[0])
	cases := []struct {
		name   string
		body   string
		status int
		code   string // v1 error code, "" for a success
	}{
		{"no requests key", "{" + single + "}", http.StatusOK, ""},
		{"requests null", `{"requests":null,` + single + "}", http.StatusOK, ""},
		{"single with ill-typed async", `{"async":"soon",` + single + "}", http.StatusOK, ""},
		{"requests empty", `{"requests":[]}`, http.StatusBadRequest, v1.CodeInvalidRequest},
		{"requests not an array", `{"requests":5,` + single + "}", http.StatusBadRequest, v1.CodeInvalidRequest},
		{"async batch", `{"async":true,"requests":[{` + single + `}]}`, http.StatusAccepted, ""},
		{"ill-typed sub-request", `{"requests":[{"outputs":5}]}`, http.StatusBadRequest, v1.CodeInvalidRequest},
		{"ill-typed single field", `{"netlist":5,"outputs":["y"]}`, http.StatusBadRequest, v1.CodeInvalidRequest},
		{"batch with ill-typed single-request field", `{"outputs":5,"requests":[{` + single + `}]}`,
			http.StatusBadRequest, v1.CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hr, err := http.Post(hs.URL+"/analyze", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(hr.Body)
			hr.Body.Close()
			if hr.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", hr.StatusCode, tc.status, buf.String())
			}
			var env struct {
				Error *v1.Error `json:"error"`
			}
			if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
				t.Fatalf("undecodable response %s: %v", buf.String(), err)
			}
			code := ""
			if env.Error != nil {
				code = env.Error.Code
			}
			if code != tc.code {
				t.Fatalf("error code %q, want %q (body %s)", code, tc.code, buf.String())
			}
		})
	}
}
