// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), plus the ablations DESIGN.md calls out. Each benchmark body is one
// full engine evaluation of the table's/figure's workload, so ns/op ratios
// between Table*QWM and Table*Spice* benchmarks are the paper's speed-up
// columns.
package qwm_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qwm/internal/bench"
	"qwm/internal/devmodel"
	"qwm/internal/la"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/sc"
	"qwm/internal/sta"
	"qwm/internal/stages"
)

var (
	hOnce sync.Once
	hVal  *bench.Harness
	hErr  error
)

func harness(b *testing.B) *bench.Harness {
	hOnce.Do(func() { hVal, hErr = bench.NewHarness(mos.CMOSP35()) })
	if hErr != nil {
		b.Fatal(hErr)
	}
	return hVal
}

func table1Workloads(b *testing.B) []*stages.Workload {
	h := harness(b)
	inv, err := stages.Inverter(h.Tech, 0.8e-6, 1.6e-6, 15e-15, 0)
	if err != nil {
		b.Fatal(err)
	}
	ws := []*stages.Workload{inv}
	for _, n := range []int{2, 3, 4} {
		g, err := stages.NAND(h.Tech, n, 0.8e-6, 1.6e-6, 15e-15, 0)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, g)
	}
	return ws
}

// --- Table I: logic gates ---

func BenchmarkTable1QWM(b *testing.B) {
	h := harness(b)
	for _, w := range table1Workloads(b) {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.RunQWM(w, qwm.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1Spice1ps(b *testing.B) {
	h := harness(b)
	for _, w := range table1Workloads(b) {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.RunSpice(w, 1e-12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1Spice10ps(b *testing.B) {
	h := harness(b)
	for _, w := range table1Workloads(b) {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.RunSpice(w, 10e-12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table II: random stacks, K = 5..10 ---

func table2Workload(b *testing.B, k int) *stages.Workload {
	h := harness(b)
	w, err := stages.RandomStack(h.Tech, k, int64(k*10))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkTable2QWM(b *testing.B) {
	h := harness(b)
	for k := 5; k <= 10; k++ {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			w := table2Workload(b, k)
			for i := 0; i < b.N; i++ {
				if _, err := h.RunQWM(w, qwm.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2Spice1ps(b *testing.B) {
	h := harness(b)
	for k := 5; k <= 10; k++ {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			w := table2Workload(b, k)
			for i := 0; i < b.N; i++ {
				if _, err := h.RunSpice(w, 1e-12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2Spice10ps(b *testing.B) {
	h := harness(b)
	for k := 5; k <= 10; k++ {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			w := table2Workload(b, k)
			for i := 0; i < b.N; i++ {
				if _, err := h.RunSpice(w, 10e-12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figures ---

// Fig. 5: the device I/V surface dump (pure table queries).
func BenchmarkFig5Surface(b *testing.B) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 7: reconstructing the stack discharge currents from a SPICE run.
func BenchmarkFig7Currents(b *testing.B) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 8: characterization fit-quality sweep.
func BenchmarkFig8Fit(b *testing.B) {
	h := harness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 9: the 6-NMOS carry-chain stack, one benchmark per engine.
func BenchmarkFig9CarryChain(b *testing.B) {
	h := harness(b)
	w, err := stages.CarryChainStack(h.Tech)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("qwm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunQWM(w, qwm.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spice1ps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunSpice(w, 1e-12); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Fig. 10: the decoder tree with AWE π-modeled wires.
func BenchmarkFig10Decoder(b *testing.B) {
	h := harness(b)
	w, err := stages.DecoderTree(h.Tech, 3, 2e-6, 50e-6, 20e-15, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("qwm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunQWM(w, qwm.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spice1ps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunSpice(w, 1e-12); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ---

// The O(K) bordered tridiagonal solve vs dense LU inside QWM's Newton update
// (paper §IV-B: "tridiagonal method gives almost twice speedup over LU").
func BenchmarkAblationTridiagVsLU(b *testing.B) {
	h := harness(b)
	w := table2Workload(b, 10)
	b.Run("tridiag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunQWM(w, qwm.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("denseLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunQWM(w, qwm.Options{UseDenseLU: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Characterized table vs direct analytic golden-model queries inside QWM.
func BenchmarkAblationTableVsAnalytic(b *testing.B) {
	h := harness(b)
	w := table2Workload(b, 8)
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunQWM(w, qwm.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunQWMAnalytic(w, qwm.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Frozen region-start capacitances (the paper's presentation) vs the secant
// charge-based second pass.
func BenchmarkAblationFreezeCaps(b *testing.B) {
	h := harness(b)
	w := table2Workload(b, 8)
	b.Run("secant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunQWM(w, qwm.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frozen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.RunQWM(w, qwm.Options{FreezeCaps: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Successive-chord integration (TETA-class) vs QWM on the identical chain.
func BenchmarkAblationSCvsQWM(b *testing.B) {
	h := harness(b)
	w := table2Workload(b, 6)
	ch, err := qwm.Build(qwm.BuildInput{
		Tech: h.Tech, Lib: h.Lib, Stage: w.Stage, Path: w.Path,
		Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("qwm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qwm.Evaluate(ch, qwm.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sc1ps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sc.Evaluate(ch, sc.Options{Step: 1e-12, TStop: w.TStop}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Parallel STA (full-flow benchmark) ---

// BenchmarkSTAParallel measures the levelized STA engine over a 4-bit row
// decoder (4 address inverters, 16 four-input NANDs, 16 row drivers) at
// several worker-pool widths. Every iteration uses a fresh Analyzer, so the
// delay cache is cold and each of the 36 stages is QWM-evaluated in both
// directions — the worst case the parallel engine is built for. The serial
// (workers=1) run is the baseline; identical results at every width are
// asserted before timing starts.
func BenchmarkSTAParallel(b *testing.B) {
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	nl, ins, outs, err := stages.DecoderNetlist(tech, 4, 1e-6, 10e-15)
	if err != nil {
		b.Fatal(err)
	}
	primary := map[string]sta.Arrival{}
	for i, in := range ins {
		primary[in] = sta.Arrival{
			Rise: float64(i) * 17e-12, Fall: float64(i) * 13e-12,
			RiseSlew: 20e-12 + float64(i)*7e-12, FallSlew: 15e-12 + float64(i)*5e-12,
		}
	}
	analyze := func(workers int) *sta.Result {
		a := sta.New(tech, lib, sta.Config{Workers: workers})
		res, err := a.AnalyzeContext(nil, sta.Request{Netlist: nl, Primary: primary, Outputs: outs})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	ref := analyze(1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if got := analyze(workers); !reflect.DeepEqual(got.Arrivals, ref.Arrivals) ||
				got.WorstArrival != ref.WorstArrival {
				b.Fatalf("workers=%d results differ from serial baseline", workers)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analyze(workers)
			}
		})
	}
}

// One-time characterization cost (excluded from the runtime comparisons, as
// in the paper's §V-B fairness note).
func BenchmarkCharacterize(b *testing.B) {
	tech := mos.CMOSP35()
	for i := 0; i < b.N; i++ {
		if _, err := devmodel.Characterize(&tech.N, tech, tech.LMin, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmark of the linear-solver kernels at the QWM system size, on
// two bordered matrices: a diagonally dominant one, and one with QWM's real
// unit mix, where the τ′ column and the event row are ~1e9 larger than the
// current rows. The second is the shape an unpivoted Thomas sweep with a
// whole-matrix pivot threshold rejected.
func BenchmarkSolverKernels(b *testing.B) {
	const n = 11 // K = 10 stack + τ′
	run := func(name string, scale, tauCol float64) {
		tri := la.NewTridiag(n)
		u := make([]float64, n)
		for i := 0; i < n; i++ {
			tri.Diag[i] = 4 * scale
			if i < n-1 {
				tri.Sub[i] = -scale
				tri.Sup[i] = -scale
			}
			if i < n-2 {
				u[i] = 0.3 * tauCol
			}
		}
		tri.Sup[n-2] = tauCol
		tri.Diag[n-1] = 4 * tauCol
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i + 1)
		}
		x := make([]float64, n)
		b.Run(name+"/bordered", func(b *testing.B) {
			work := make([]float64, 4*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tri.SolveBorderedInto(u, rhs, x, work); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/denseLU", func(b *testing.B) {
			dense := la.NewMatrix(n, n)
			tri.BorderedDenseInto(u, dense)
			lu := la.NewMatrix(n, n)
			piv := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := la.SolveDenseInto(dense, rhs, x, lu, piv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("dominant", 1, 1)
	run("qwmUnits", 1e-12, 1e-3)
}
