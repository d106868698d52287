// Package faultinject is the deterministic seeded fault-injection framework
// behind the STA engine's chaos mode. An Injector is configured with a seed
// and a per-class firing rate; every injection decision is a pure hash of
// (seed, class, site key), so it is independent of goroutine scheduling,
// worker count and wall-clock — two runs at the same seed inject exactly the
// same faults at exactly the same sites, which is what lets the chaos
// harness assert bit-for-bit deterministic degraded results at Workers 1
// and 8.
//
// Hooks are nil-by-default: every method is safe on a nil *Injector and
// returns "no fault", so production call sites pay one nil check and
// nothing else.
package faultinject

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Class enumerates the injectable fault classes. Each class maps to one
// solver/cache/worker boundary in the evaluation pipeline:
//
//   - NRDivergence fails a QWM region solve outright, as a Newton
//     non-convergence near a flat region would (site: qwm.solveRegion).
//   - PivotBreakdown forces a pivot breakdown in the Newton update's
//     bordered-tridiagonal solve, exercising the in-scratch dense-LU
//     recovery, which must reproduce the kernel's bits (site:
//     qwm regionSys.newton).
//   - Panic raises a synthetic panic inside a worker-side tier evaluation,
//     exercising the recover() isolation that converts panics into typed
//     ErrPanicRecovered evaluation errors (site: sta degradation ladder).
//   - BudgetExhaustion aborts a tier evaluation with ErrBudgetExceeded, as
//     a tiny Request.EvalBudget would (site: sta degradation ladder).
//   - CacheStall sleeps briefly inside a delay-cache compute, simulating
//     shard contention / a slow single-flight leader; results must be
//     unaffected (site: sta delay cache compute).
//   - NetLatency delays one remote-cache round trip, as a congested or
//     GC-pausing peer would; results must be unaffected (site:
//     remotecache client attempt).
//   - NetError fails one remote-cache round trip outright (connection
//     refused / reset / 5xx); the tier must degrade to a miss, never an
//     analysis error (site: remotecache client attempt).
//   - NetCorrupt flips a byte in a remote-cache response body before
//     decoding, so the CRC re-verification path is exercised; corruption
//     must be a counted miss, never wrong data (site: remotecache client
//     response).
//
// The three Net* classes key on the delay-cache key like every other class,
// so the injected network weather is schedule-independent: the same keys
// suffer the same faults no matter how workers interleave their requests.
type Class uint8

const (
	NRDivergence Class = iota
	PivotBreakdown
	Panic
	BudgetExhaustion
	CacheStall
	NetLatency
	NetError
	NetCorrupt
	// NumClasses bounds the class enum; not a class itself.
	NumClasses
)

var classNames = [NumClasses]string{
	NRDivergence:     "nr-divergence",
	PivotBreakdown:   "pivot-breakdown",
	Panic:            "panic",
	BudgetExhaustion: "budget-exhaustion",
	CacheStall:       "cache-stall",
	NetLatency:       "net-latency",
	NetError:         "net-error",
	NetCorrupt:       "net-corrupt",
}

// Network reports whether c injects at a network (remote-cache) site rather
// than inside the evaluation engine. The engine chaos sweep skips network
// classes — with no remote tier armed they have no site to fire at — and the
// remote-cache differential (verify -remote) gates them instead.
func (c Class) Network() bool {
	return c == NetLatency || c == NetError || c == NetCorrupt
}

// String returns the canonical hyphenated class name.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass resolves a canonical class name (as printed by String).
func ParseClass(s string) (Class, error) {
	for c, name := range classNames {
		if s == name {
			return Class(c), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown fault class %q (known: %v)", s, Classes())
}

// Classes lists every class name in enum order.
func Classes() []string {
	out := make([]string, NumClasses)
	copy(out, classNames[:])
	return out
}

// Injector decides, deterministically per (seed, class, key), whether a
// fault fires at a given site. The zero value and nil are inert. Injectors
// are safe for concurrent use: configuration (Enable, WithStall) must
// happen before the injector is shared, after which only atomic counters
// mutate.
type Injector struct {
	seed  int64
	rate  [NumClasses]float64
	stall time.Duration

	checked [NumClasses]atomic.Int64
	fired   [NumClasses]atomic.Int64
}

// New creates an injector with every class disabled. Identical seeds make
// identical decisions for identical (class, key) pairs.
func New(seed int64) *Injector { return &Injector{seed: seed, stall: 100 * time.Microsecond} }

// Enable arms class c at the given firing rate in [0, 1] and returns the
// injector for chaining. Rate 1 fires on every key; rate 0 disarms.
func (in *Injector) Enable(c Class, rate float64) *Injector {
	if c < NumClasses {
		in.rate[c] = rate
	}
	return in
}

// WithStall sets the sleep duration Stall uses when CacheStall fires
// (default 100 µs).
func (in *Injector) WithStall(d time.Duration) *Injector {
	in.stall = d
	return in
}

// Fire reports whether class c fires at the site identified by key. The
// decision is a pure function of (seed, class, key): it does not depend on
// call order, goroutine, or time, so concurrent evaluation schedules see
// identical faults. Safe on a nil receiver (never fires).
func (in *Injector) Fire(c Class, key string) bool {
	if in == nil || c >= NumClasses {
		return false
	}
	r := in.rate[c]
	if r <= 0 {
		return false
	}
	in.checked[c].Add(1)
	if u01(in.seed, c, key) >= r {
		return false
	}
	in.fired[c].Add(1)
	return true
}

// Stall blocks for the configured stall duration when class c fires at key;
// it must only be used for classes whose injected fault is pure latency
// (CacheStall, NetLatency). Safe on a nil receiver.
func (in *Injector) Stall(c Class, key string) {
	if in.Fire(c, key) {
		time.Sleep(in.stall)
	}
}

// Counts is a per-class tally keyed by canonical class name.
type Counts map[string]int64

// Fired snapshots how many times each armed class has fired; classes that
// never fired are omitted. Safe on a nil receiver (empty).
func (in *Injector) Fired() Counts {
	out := Counts{}
	if in == nil {
		return out
	}
	for c := Class(0); c < NumClasses; c++ {
		if n := in.fired[c].Load(); n > 0 {
			out[c.String()] = n
		}
	}
	return out
}

// FiredTotal is the total fire count across all classes.
func (in *Injector) FiredTotal() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for c := Class(0); c < NumClasses; c++ {
		t += in.fired[c].Load()
	}
	return t
}

// String renders the armed classes and their fire counts, sorted by name.
func (in *Injector) String() string {
	if in == nil {
		return "faultinject: nil (inert)"
	}
	fired := in.Fired()
	names := make([]string, 0, len(fired))
	for n := range fired {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("faultinject: seed %d", in.seed)
	for _, n := range names {
		s += fmt.Sprintf(" %s=%d", n, fired[n])
	}
	return s
}

// u01 maps (seed, class, key) to a uniform value in [0, 1) with a 64-bit
// FNV-1a hash finalized by a splitmix64 round — cheap, allocation-free, and
// well-mixed enough that per-class rates come out close to nominal across
// realistic key sets.
func u01(seed int64, c Class, key string) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(seed>>(8*i)) & 0xff
		h *= prime64
	}
	h ^= uint64(c)
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// splitmix64 finalizer: FNV alone mixes low bits poorly for short keys.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}
