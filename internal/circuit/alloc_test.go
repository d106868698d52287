package circuit_test

import (
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/stages"
)

// TestExtractStagesAllocs is the extractor's allocation gate on the 6-bit
// decoder (908 transistors, 134 stages). The string-keyed union-find spent
// 2 879 allocations here. Over dense node ids, with one backing array per
// kind of result (stages, names, edges, stage names), the count no longer
// grows with the netlist: measured at 22, most of them the id map's
// tables. The budget leaves a few for runtime map-layout changes; a
// per-stage, per-node or per-edge allocation blows it at once.
func TestExtractStagesAllocs(t *testing.T) {
	nl, _, outs, err := stages.DecoderNetlist(mos.CMOSP35(), 6, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 26
	avg := testing.AllocsPerRun(5, func() {
		if len(circuit.ExtractStages(nl, outs)) == 0 {
			t.Fatal("no stages")
		}
	})
	if avg > budget {
		t.Fatalf("extracting the decoder's stages allocates %.0f/op, budget %d", avg, budget)
	}
}
