package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"

	"qwm/internal/api/v1"
	"qwm/internal/obs"
)

// maxBodyBytes bounds one POST body. Netlists are text; 8 MiB is far above
// any deck this engine targets and keeps a hostile client from ballooning
// the process.
const maxBodyBytes = 8 << 20

// Handler returns the service mux: POST /analyze and GET /result/{id},
// wrapped in the RED-metrics / request-tracing middleware when Options
// configured either (see trace.go; without both the mux is returned bare).
// Mount it alongside an obs.Server handler for the full serving surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/result/", s.handleResult)
	return s.instrument(mux)
}

// httpStatus maps a v1 response to its transport status. The wire envelope
// carries the real verdict; the HTTP code exists for clients and proxies
// that route on status alone.
func httpStatus(resp v1.AnalyzeResponse) int {
	if resp.Status == v1.StatusOK {
		return http.StatusOK
	}
	if resp.Error == nil {
		return http.StatusInternalServerError
	}
	switch resp.Error.Code {
	case v1.CodeInvalidRequest:
		return http.StatusBadRequest
	case v1.CodeInvalidNetlist:
		return http.StatusUnprocessableEntity
	case v1.CodeOverloaded:
		return http.StatusTooManyRequests
	case v1.CodeNotFound:
		return http.StatusNotFound
	case v1.CodeGone:
		return http.StatusGone
	case v1.CodeCancelled:
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// retryAfter derives the 429 Retry-After hint: a base that grows with the
// queued backlog relative to drain capacity (an empty queue says "1", a deep
// one says "come back much later"), plus a deterministic per-request jitter
// hashed from the request id so a burst of rejected clients does not return
// in lockstep and re-collide. Same id, same depth, same answer — replayable
// under test.
func (s *Server) retryAfter(id string) string {
	base := 1 + s.queue.queuedDepth()/(4*s.opts.Workers)
	if base > 30 {
		base = 30
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return strconv.Itoa(base + int(h.Sum64()%uint64(base+1)))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed,
			v1.ErrorResponse("", v1.CodeInvalidRequest, "POST required"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			v1.ErrorResponse("", v1.CodeInvalidRequest, "request body too large"))
		return
	}
	req, breq, err := decodeEnvelope(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			v1.ErrorResponse("", v1.CodeInvalidRequest, "malformed JSON: "+err.Error()))
		return
	}
	if breq != nil {
		s.handleBatch(w, r, breq)
		return
	}
	s.mRequests.Inc()
	b := s.admit(r.Context(), []v1.AnalyzeRequest{req}, false)
	if b == nil {
		w.Header().Set("Retry-After", s.retryAfter(req.ID))
		writeJSON(w, http.StatusTooManyRequests,
			v1.ErrorResponse(req.ID, v1.CodeOverloaded, "work queue full, retry later"))
		return
	}
	<-b.done
	resp := b.responses[0]
	resp.TraceID = obs.TraceIDFrom(r.Context())
	writeJSON(w, httpStatus(resp), resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, breq *v1.BatchRequest) {
	if err := v1.Validate(breq.SchemaVersion); err != nil {
		writeJSON(w, http.StatusBadRequest,
			v1.ErrorResponse(breq.ID, v1.CodeInvalidRequest, err.Error()))
		return
	}
	if len(breq.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest,
			v1.ErrorResponse(breq.ID, v1.CodeInvalidRequest, "empty batch"))
		return
	}
	s.mBatches.Inc()
	s.mRequests.Add(int64(len(breq.Requests)))
	if len(breq.Requests) > s.opts.QueueLen {
		// Larger than the queue will EVER hold: retrying is hopeless, so
		// this is a client error, not backpressure.
		writeJSON(w, http.StatusRequestEntityTooLarge,
			v1.ErrorResponse(breq.ID, v1.CodeInvalidRequest,
				fmt.Sprintf("batch of %d exceeds queue capacity %d; split it",
					len(breq.Requests), s.opts.QueueLen)))
		return
	}
	// Async batches outlive the submitting connection: their jobs run under
	// Background so a post-202 disconnect cannot shed retained work.
	ctx := r.Context()
	if breq.Async {
		ctx = context.Background()
	}
	b := s.admit(ctx, breq.Requests, breq.Async)
	if b == nil {
		w.Header().Set("Retry-After", s.retryAfter(breq.ID))
		writeJSON(w, http.StatusTooManyRequests, v1.BatchResponse{
			SchemaVersion: v1.SchemaVersion,
			ID:            breq.ID,
			Status:        v1.StatusError,
			Total:         len(breq.Requests),
			Error:         &v1.Error{Code: v1.CodeOverloaded, Message: "work queue full, retry later"},
		})
		return
	}
	if breq.Async {
		writeJSON(w, http.StatusAccepted, v1.BatchResponse{
			SchemaVersion: v1.SchemaVersion,
			ID:            b.id,
			Status:        v1.StatusPending,
			Total:         b.total,
			TraceID:       obs.TraceIDFrom(r.Context()),
		})
		return
	}
	<-b.done
	bresp := batchResponse(b)
	bresp.TraceID = obs.TraceIDFrom(r.Context())
	writeJSON(w, http.StatusOK, bresp)
}

// envelope is the single decode target of a POST /analyze body: the fields
// of one AnalyzeRequest plus a batch's "async" and "requests". A body whose
// "requests" holds an array (even an empty one) is a batch; anything else,
// "requests": null included, is a single request.
type envelope struct {
	v1.AnalyzeRequest
	Async    batchField[bool] `json:"async"`
	Requests requestsField    `json:"requests"`
}

// batchField holds a batch-only field whose type error is deferred until
// the body is known to be a batch: a single request ignores "async", and
// the elements of a "requests" array that a later null replaced, however
// ill-typed they are.
type batchField[T any] struct {
	v   T
	err error
}

func (f *batchField[T]) UnmarshalJSON(b []byte) error {
	if err := json.Unmarshal(b, &f.v); err != nil && f.err == nil {
		f.err = err
	}
	return nil
}

// requestsField is the "requests" list. A value that is neither an array
// nor null fails every body, single or batch.
type requestsField struct {
	batchField[[]v1.AnalyzeRequest]
}

func (f *requestsField) UnmarshalJSON(b []byte) error {
	if b[0] != '[' && b[0] != 'n' {
		return errors.New(`json: "requests" must be an array or null`)
	}
	return f.batchField.UnmarshalJSON(b)
}

// decodeEnvelope decodes a POST /analyze body in one pass. It returns the
// batch when the body is one, else the single request. A batch also fails
// on an ill-typed single-request field at its top level (say "outputs": 5),
// since the whole body is one value.
func decodeEnvelope(body []byte) (v1.AnalyzeRequest, *v1.BatchRequest, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return v1.AnalyzeRequest{}, nil, err
	}
	if env.Requests.v == nil {
		return env.AnalyzeRequest, nil, nil
	}
	if err := cmp.Or(env.Requests.err, env.Async.err); err != nil {
		return v1.AnalyzeRequest{}, nil, err
	}
	return v1.AnalyzeRequest{}, &v1.BatchRequest{
		SchemaVersion: env.SchemaVersion,
		ID:            env.ID,
		Async:         env.Async.v,
		Requests:      env.Requests.v,
	}, nil
}

// batchResponse renders a COMPLETED batch.
func batchResponse(b *batch) v1.BatchResponse {
	resp := v1.BatchResponse{
		SchemaVersion: v1.SchemaVersion,
		ID:            b.id,
		Status:        v1.StatusOK,
		Completed:     b.total,
		Total:         b.total,
		Responses:     b.responses,
	}
	for _, r := range b.responses {
		if r.Status != v1.StatusOK {
			resp.Status = v1.StatusError
			break
		}
	}
	return resp
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed,
			v1.ErrorResponse("", v1.CodeInvalidRequest, "GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/result/")
	b, evicted := s.lookup(id)
	if b == nil {
		// Two distinct failures, two distinct answers: an id this server
		// retained and then FIFO-evicted is 410 Gone (the result existed;
		// polling later cannot help), an id it never issued is 404.
		if evicted {
			writeJSON(w, http.StatusGone, v1.BatchResponse{
				SchemaVersion: v1.SchemaVersion,
				ID:            id,
				Status:        v1.StatusError,
				Error:         &v1.Error{Code: v1.CodeGone, Message: "result evicted by retention cap; re-submit the batch"},
			})
			return
		}
		writeJSON(w, http.StatusNotFound, v1.BatchResponse{
			SchemaVersion: v1.SchemaVersion,
			ID:            id,
			Status:        v1.StatusError,
			Error:         &v1.Error{Code: v1.CodeNotFound, Message: "unknown result id"},
		})
		return
	}
	select {
	case <-b.done:
		writeJSON(w, http.StatusOK, batchResponse(b))
	default:
		completed, total := b.progress()
		writeJSON(w, http.StatusAccepted, v1.BatchResponse{
			SchemaVersion: v1.SchemaVersion,
			ID:            b.id,
			Status:        v1.StatusPending,
			Completed:     completed,
			Total:         total,
		})
	}
}
