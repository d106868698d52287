package sta

import (
	"fmt"
	"math"

	"qwm/internal/faultinject"
	"qwm/internal/obs"
	"qwm/internal/reduce"
)

// Config is the consolidated analyzer configuration: every knob that used to
// be set by poking exported Analyzer fields after New, gathered into one
// value that can be passed to New, compared, and — for the subset that
// affects results — canonically fingerprinted with Signature. The zero
// Config is the exact baseline engine: serial-equivalent parallelism at
// GOMAXPROCS, no reduction, no memoization, unlimited budget, no
// observability.
//
// The exported Analyzer fields (Workers, Reduction, Memo, Metrics, …) remain
// writable as thin deprecated shims so existing construct-then-assign callers
// keep compiling; new code should pass a Config to New so the analyzer's
// identity is fixed at construction. The service layer depends on that:
// analyzers are pooled by Signature, and mutating a pooled analyzer's
// configuration after construction would silently mix cache namespaces.
type Config struct {
	// Workers caps concurrent stage-direction evaluations per level.
	// 0 means runtime.GOMAXPROCS(0). Results are identical at any setting,
	// which is why Workers is NOT part of Signature.
	Workers int
	// Reduction configures the RC-chain model-order-reduction pre-pass.
	Reduction reduce.Config
	// Memo configures equivalence-class stage memoization.
	Memo MemoConfig
	// Budget is the default per-evaluation budget for requests that do not
	// carry their own (Request.Budget takes precedence when non-zero).
	Budget EvalBudget
	// FaultPlan, when non-nil, arms deterministic fault injection on every
	// request that does not carry its own injector — a chaos-rig default.
	// Production configs leave it nil.
	FaultPlan *faultinject.Injector
	// Observer receives span events for requests that do not carry their
	// own (Request.Observer takes precedence).
	Observer obs.Observer
	// Metrics, when set, receives per-Analyze aggregates.
	Metrics *obs.Registry
	// Tier, when set, is the persistent delay-cache tier below the in-memory
	// cache: misses consult it before evaluating, and fresh evaluations are
	// written back. See TierStore.
	Tier TierStore
}

// Signature canonically encodes the result-affecting subset of the
// configuration: two analyzers with equal signatures produce bit-identical
// results for identical requests and may therefore share delay-cache
// entries — in memory or on disk. The service pools analyzers by this string
// and namespaces the disk tier with it; the disk cache persists it alongside
// the data so a namespace can never be re-opened under a different config.
//
// Deliberately excluded: Workers (determinism at any width is the engine's
// core guarantee), Metrics/Observer (observability never changes results),
// FaultPlan (chaos runs must use dedicated analyzers anyway — see
// Request.Fault), and Tier itself (a cache tier stores results, it does not
// define them).
//
// The leading engine version names the solver's arithmetic. It changes
// whenever the engine's bits do, so that disk and remote tiers written by an
// older engine key apart instead of mixing into new answers: qwm2 is the
// pivoted bordered-tridiagonal Newton solve with grouped junction
// capacitances.
func (c Config) Signature() string {
	return fmt.Sprintf("qwm2|red:%s|memo:%s|nr:%d|wallns:%d",
		c.Reduction.Signature(), c.Memo.Signature(), c.Budget.NRIters, c.Budget.Wall.Nanoseconds())
}

// Config returns the analyzer's current configuration. Together with
// Signature it lets pooling layers verify an analyzer still matches the
// config it was pooled under.
func (a *Analyzer) Config() Config {
	return Config{
		Workers:   a.Workers,
		Reduction: a.Reduction,
		Memo:      a.Memo,
		Budget:    a.Budget,
		FaultPlan: a.Fault,
		Observer:  a.Observer,
		Metrics:   a.Metrics,
		Tier:      a.Tier,
	}
}

// Signature is shorthand for a.Config().Signature().
func (a *Analyzer) Signature() string { return a.Config().Signature() }

// TierEntry is the portable form of one cached direction timing — the value
// a TierStore persists. Every field of the internal dirTiming is represented
// (delays, degradation accounting, solver statistics) so a tier hit is
// indistinguishable from an in-memory hit: diagnostics, metrics and
// observer events all see the original evaluation's numbers.
type TierEntry struct {
	Delay, Slew  float64
	OK           bool
	SlewFellBack bool
	ErrMsg       string
	Tier         uint8
	Panics       int32
	Reduced      int32
	NRIters      int32
	Regions      int32
	DenseFall    int32
	CapResolves  int32
}

// Valid reports whether the entry could have been produced by this engine
// version — the cheap semantic check stores run after checksum verification,
// so a decodable-but-nonsensical record is treated as a miss rather than
// poisoning an analysis.
func (e TierEntry) Valid() bool {
	if Tier(e.Tier) >= NumTiers {
		return false
	}
	if e.OK && (math.IsNaN(e.Delay) || math.IsNaN(e.Slew)) {
		return false
	}
	return true
}

// TierStore is a read-through/write-behind store below the in-memory delay
// cache: the single-flight leader consults Get before evaluating and calls
// Put with every freshly computed timing. Implementations must be safe for
// concurrent use and are expected to be lossy in BOTH directions — a failed
// or dropped Put and a corrupt or missing Get are misses, never errors; the
// engine re-evaluates and overwrites. Keys are the engine's content-addressed
// cache keys (stage content + load digest + reduction signature + rail +
// slew bucket), so a store namespace must only ever be shared between
// analyzers with equal Signatures.
type TierStore interface {
	Get(key string) (TierEntry, bool)
	Put(key string, e TierEntry)
}

// tierEntryOf converts a computed timing to its portable form.
func tierEntryOf(t dirTiming) TierEntry {
	return TierEntry{
		Delay:        t.delay,
		Slew:         t.slew,
		OK:           t.ok,
		SlewFellBack: t.slewFellBack,
		ErrMsg:       t.errMsg,
		Tier:         uint8(t.tier),
		Panics:       int32(t.panics),
		Reduced:      int32(t.reduced),
		NRIters:      int32(t.stats.NRIters),
		Regions:      int32(t.stats.Regions),
		DenseFall:    int32(t.stats.DenseFallbacks),
		CapResolves:  int32(t.stats.CapResolves),
	}
}

// timing converts a persisted entry back to the engine's cache value.
func (e TierEntry) timing() dirTiming {
	t := dirTiming{
		delay:        e.Delay,
		slew:         e.Slew,
		ok:           e.OK,
		slewFellBack: e.SlewFellBack,
		errMsg:       e.ErrMsg,
		tier:         Tier(e.Tier),
		panics:       int(e.Panics),
		reduced:      int(e.Reduced),
	}
	t.stats.NRIters = int(e.NRIters)
	t.stats.Regions = int(e.Regions)
	t.stats.DenseFallbacks = int(e.DenseFall)
	t.stats.CapResolves = int(e.CapResolves)
	return t
}
