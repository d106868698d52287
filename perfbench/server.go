package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"qwm/internal/api/v1"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/service"
)

// rig is one in-process stad-equivalent server on a loopback listener:
// memory delay cache only (no disk or remote tier), a metrics registry as
// stad configures one, and request tracing only when flight is set.
type rig struct {
	tech   *mos.Tech
	svc    *service.Server
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	flight *obs.FlightRecorder
}

// conns is the load generator's goroutine and connection budget: one per
// CPU, so the generator never needs more of the machine than it has.
func conns() int { return runtime.NumCPU() }

// newRig characterizes the device library, starts the service and returns
// once the listener answers.
func newRig(flight *obs.FlightRecorder) (*rig, error) {
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	for _, pol := range []mos.Polarity{mos.NMOS, mos.PMOS} {
		if _, err := lib.Table(pol, tech.LMin); err != nil {
			return nil, fmt.Errorf("characterize: %w", err)
		}
	}
	svc := service.New(tech, lib, service.Options{
		QueueLen: 64,
		Workers:  2,
		Metrics:  obs.NewRegistry(),
		Flight:   flight,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	r := &rig{
		tech: tech, svc: svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		flight: flight,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns(),
			MaxIdleConnsPerHost: conns(),
			DisableCompression:  true,
		}},
	}
	go func() { r.served <- r.srv.Serve(ln) }()
	// Ready means the service answers: an unknown result id is a 404.
	resp, err := r.client.Get(r.url + "/result/ready")
	if err != nil {
		r.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		r.close()
		return nil, fmt.Errorf("readiness probe: HTTP %d", resp.StatusCode)
	}
	return r, nil
}

// close stops the listener, waits for the serve loop, then drains the
// service workers.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		r.srv.Close()
	}
	<-r.served
	r.client.CloseIdleConnections()
	r.svc.Close()
	r.flight.Close()
}

// setupReps is how many times a run sets up its system under test; setup_s
// is the median.
const setupReps = 9

// setupRigs builds n rigs in sequence, timing each from the first library
// call to a ready listener, and keeps the last. The reported set-up time is
// the median over the n.
func setupRigs(n int) (*rig, []float64, error) {
	var times []float64
	var last *rig
	for i := 0; i < n; i++ {
		if last != nil {
			last.close()
		}
		t := time.Now()
		r, err := newRig(nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		last = r
	}
	return last, times, nil
}

// reply is one HTTP exchange as the load generator saw it.
type reply struct {
	status  int
	body    []byte
	traceID string
}

func (r *rig) post(body []byte) (reply, error) {
	resp, err := r.client.Post(r.url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, traceID: resp.Header.Get("X-Qwm-Trace-Id")}, nil
}

// checkResponse decodes a reply and verifies the qwm.v1 envelope: HTTP 200,
// schema version, status ok, the request's id, and a finite arrival pair
// for every requested output.
func checkResponse(rp reply, req request) (v1.AnalyzeResponse, error) {
	var resp v1.AnalyzeResponse
	if rp.status != http.StatusOK {
		return resp, fmt.Errorf("%s: HTTP %d: %.200s", req.ID, rp.status, rp.body)
	}
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return resp, fmt.Errorf("%s: undecodable response: %w", req.ID, err)
	}
	switch {
	case resp.SchemaVersion != v1.SchemaVersion:
		return resp, fmt.Errorf("%s: schema_version %q", req.ID, resp.SchemaVersion)
	case resp.Status != v1.StatusOK || resp.Result == nil:
		return resp, fmt.Errorf("%s: status %q, error %+v", req.ID, resp.Status, resp.Error)
	case resp.ID != req.ID:
		return resp, fmt.Errorf("%s: response id %q", req.ID, resp.ID)
	}
	for _, o := range req.Outputs {
		a, ok := resp.Result.Outputs[o]
		if !ok {
			return resp, fmt.Errorf("%s: output %s missing", req.ID, o)
		}
		for _, x := range []float64{a.Rise, a.Fall, a.RiseSlew, a.FallSlew} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return resp, fmt.Errorf("%s: output %s arrival %+v not finite", req.ID, o, a)
			}
		}
	}
	if math.IsNaN(resp.Result.WorstArrival) || math.IsInf(resp.Result.WorstArrival, 0) {
		return resp, fmt.Errorf("%s: worst arrival not finite", req.ID)
	}
	return resp, nil
}

// canonical re-encodes a response without its trace id, the form two
// answers to the same request are compared in.
func canonical(resp v1.AnalyzeResponse) []byte {
	resp.TraceID = ""
	b, err := json.Marshal(resp)
	if err != nil {
		// Every field of AnalyzeResponse is marshalable; a failure here is
		// a bug in this program.
		panic(err)
	}
	return b
}
