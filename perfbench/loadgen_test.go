package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers at once, except that its stallAt-th request (0-based)
// stalls for stall before answering.
func stubServer(stallAt int, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if int(n.Add(1))-1 == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
}

func stubSend(t *testing.T, url string) func(int) (outcome, time.Time) {
	client := &http.Client{}
	return func(int) (outcome, time.Time) {
		resp, err := client.Post(url, "text/plain", nil)
		if err != nil {
			t.Error(err)
			return outFailed, time.Now()
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return outFailed, time.Now()
		}
		return outOK, time.Now()
	}
}

func uniformSchedule(n int, gap time.Duration) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i) * gap
	}
	return s
}

// TestOpenLoopStallDelaysLaterRequests pins the open-loop accounting: one
// stalled request makes the requests due behind it late, and their
// latencies, measured from the due time, include that wait even though the
// server answers them at once.
func TestOpenLoopStallDelaysLaterRequests(t *testing.T) {
	const (
		stallAt = 5
		stall   = 300 * time.Millisecond
		gap     = 10 * time.Millisecond
	)
	srv := stubServer(stallAt, stall)
	defer srv.Close()
	p := openLoop(1, uniformSchedule(40, gap), missBudget{}, stubSend(t, srv.URL))
	if p.Sent != 40 || p.OK != 40 || p.Failed != 0 || p.Shed != 0 {
		t.Fatalf("accounting sent=%d ok=%d failed=%d shed=%d, want 40/40/0/0", p.Sent, p.OK, p.Failed, p.Shed)
	}
	// Request stallAt+1 was due one gap after the stalled one and could only
	// be sent once the stall ended.
	next := p.lat[stallAt+1]
	if want := stall - 2*gap; next < want {
		t.Errorf("request after the stall: latency %v, want ≥ %v", next, want)
	}
	if p.late[stallAt+1] < stall-2*gap {
		t.Errorf("request after the stall sent %v late, want ≥ %v", p.late[stallAt+1], stall-2*gap)
	}
	// Several later requests inherit part of the stall.
	hit := 0
	for i := stallAt + 1; i < len(p.lat); i++ {
		if p.lat[i] > 50*time.Millisecond {
			hit++
		}
	}
	if hit < 5 {
		t.Errorf("only %d requests after the stall saw > 50 ms latency, want ≥ 5", hit)
	}
	if p.LateP99MS < ms(stall-2*gap) {
		t.Errorf("late_ms_p99 = %.1f, want ≥ %.1f", p.LateP99MS, ms(stall-2*gap))
	}
}

// TestOpenLoopNoStall is the control: without a stall no request is late
// by anything like the stall, so the latency above comes from the stall.
func TestOpenLoopNoStall(t *testing.T) {
	srv := stubServer(-1, 0)
	defer srv.Close()
	p := openLoop(1, uniformSchedule(40, 10*time.Millisecond), missBudget{}, stubSend(t, srv.URL))
	if p.OK != 40 {
		t.Fatalf("ok=%d, want 40", p.OK)
	}
	if p.P99MS > 100 {
		t.Errorf("p99 = %.1f ms without a stall", p.P99MS)
	}
}

// TestOpenLoopCountsFailures checks that a failed request is counted and
// misses every latency limit.
func TestOpenLoopCountsFailures(t *testing.T) {
	p := openLoop(2, uniformSchedule(10, time.Millisecond), missBudget{}, func(i int) (outcome, time.Time) {
		switch i {
		case 3:
			return outFailed, time.Now()
		case 4:
			return outShed, time.Now()
		}
		return outOK, time.Now()
	})
	if p.OK != 8 || p.Failed != 1 || p.Shed != 1 {
		t.Fatalf("ok=%d failed=%d shed=%d, want 8/1/1", p.OK, p.Failed, p.Shed)
	}
	if p.lat[3] != missed || p.lat[4] != missed {
		t.Errorf("failed/shed latencies %v %v, want missed", p.lat[3], p.lat[4])
	}
}

// TestOpenLoopMissBudgetStops checks that a phase whose requests keep
// missing the limit ends once the budget is spent, without sending the
// rest.
func TestOpenLoopMissBudgetStops(t *testing.T) {
	p := openLoop(1, uniformSchedule(100, time.Millisecond), missBudget{limit: time.Millisecond, n: 3},
		func(i int) (outcome, time.Time) {
			time.Sleep(2 * time.Millisecond)
			return outOK, time.Now()
		})
	if !p.Stopped || p.Sent != 4 {
		t.Fatalf("stopped=%v sent=%d, want a stop after the 4th miss", p.Stopped, p.Sent)
	}
	if len(p.lat) != p.Sent {
		t.Errorf("%d latencies for %d sends", len(p.lat), p.Sent)
	}
}
