package sta

import (
	"testing"

	"qwm/internal/circuit"
)

// TestPutScratchDropsRequestPointers pins putScratch's promise that an idle
// Analyzer never pins a finished request: the per-level slabs hold the
// request's net names and stages up to their capacity (a smaller last
// level leaves an earlier level's tail past the length), and every slot up
// to capacity must come back empty.
func TestPutScratchDropsRequestPointers(t *testing.T) {
	a := New(tech, lib)
	s := a.getScratch()
	st := &circuit.Stage{Name: "stage0"}
	s.ins = make([]stageInputs, 8)
	s.items = make([]workItem, 8)
	s.evs = make([]outEval, 8)
	for i := range s.ins {
		s.ins[i] = stageInputs{riseFrom: "in_rise", fallFrom: "in_fall"}
		resetItem(&s.items[i], st, "out", &s.evs[i], circuit.GroundNode, 1e-12, 0, i)
		s.evs[i] = outEval{contentKey: "k", loads: map[string]float64{"out": 1e-15}}
	}
	// The last level was smaller than the first.
	s.ins, s.items, s.evs = s.ins[:3], s.items[:3], s.evs[:3]
	a.putScratch(s)

	for i, in := range s.ins[:cap(s.ins)] {
		if in.riseFrom != "" || in.fallFrom != "" {
			t.Errorf("ins[%d] keeps net names %q/%q", i, in.riseFrom, in.fallFrom)
		}
	}
	for i, it := range s.items[:cap(s.items)] {
		if it.st != nil || it.ev != nil || it.out != "" {
			t.Errorf("items[%d] keeps stage %v, eval %v, output %q", i, it.st, it.ev, it.out)
		}
	}
	for i, ev := range s.evs[:cap(s.evs)] {
		if ev.loads != nil || ev.contentKey != "" {
			t.Errorf("evs[%d] keeps key %q and loads %v", i, ev.contentKey, ev.loads)
		}
	}
}
