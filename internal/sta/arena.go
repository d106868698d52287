package sta

import (
	"bytes"
	"slices"
	"strconv"
	"sync"

	"qwm/internal/circuit"
)

// This file is the per-Analyze arena: a pooled scratch structure holding
// every map, slice and byte buffer the gather/levelize/apply machinery needs,
// so a warm Analyze (all cache hits) allocates almost nothing. The arena is
// strictly request-scoped — acquired at the top of AnalyzeContext, released
// (cleared of per-request pointers) when it returns — and pooled on the
// Analyzer, so concurrent Analyzes each get their own and steady-state reuse
// is allocation-free. Nothing reachable from a Result may point into the
// arena: Result.Arrivals, CriticalPath and the diagnostics maps are always
// freshly allocated.

// internTable deduplicates cache-key strings: the hot path builds keys into
// reusable byte buffers, and intern materializes a string only the first time
// a distinct key is seen. Lookups exploit the map[string(b)] no-allocation
// idiom. Entries live for the Analyzer's lifetime, exactly like the delay
// cache entries the keys index.
type internTable struct {
	mu sync.RWMutex
	m  map[string]string
}

func (t *internTable) intern(b []byte) string {
	t.mu.RLock()
	s, ok := t.m[string(b)]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = map[string]string{}
	}
	s, ok = t.m[string(b)]
	if !ok {
		s = string(b)
		t.m[s] = s
	}
	t.mu.Unlock()
	return s
}

// analyzeScratch is one request's arena. All fields are grow-only: maps are
// cleared (buckets retained) and slices re-sliced to length zero between
// requests, so capacity accumulates to the high-water mark and stays there.
type analyzeScratch struct {
	producer  map[string]*circuit.Stage
	predFall  map[string]string // net -> worst fall predecessor (a rising input)
	predRise  map[string]string
	classSeen map[string]bool
	ix        loadIndex

	// Levelization scratch (see levelize). seenStamp uses the monotonic
	// stamp-counter idiom: a per-stage "visited" mark is one int compare
	// instead of a fresh map per stage, and because stamp never resets,
	// stale values from earlier requests can never collide.
	idx       map[*circuit.Stage]int
	consumers [][]int
	indeg     []int
	seenStamp []int
	stamp     int
	cur, next []int
	levelBuf  []*circuit.Stage
	levels    [][]*circuit.Stage

	// Per-level slabs. evs and items are sized to the level's output count
	// up front so &evs[i] stays stable while the level is filled; workItem
	// slots keep their key buffers across levels and requests.
	ins   []stageInputs
	items []workItem
	evs   []outEval

	// Pooled per-output load maps, reused level over level (an output's map
	// is only read while its level is in flight).
	loadMaps []map[string]float64
	loadUsed int

	// Key-building buffers: keyBuf assembles content keys and raw bases,
	// segBuf/segOffs/segOrd hold the stage-edge segments being sorted, and
	// nodeBuf sorts load-map node names for the digest.
	keyBuf  []byte
	segBuf  []byte
	segOffs []int
	segOrd  []int
	nodeBuf []string
}

func (a *Analyzer) getScratch() *analyzeScratch {
	if s, ok := a.scratch.Get().(*analyzeScratch); ok && s != nil {
		return s
	}
	return &analyzeScratch{
		producer:  map[string]*circuit.Stage{},
		predFall:  map[string]string{},
		predRise:  map[string]string{},
		classSeen: map[string]bool{},
		idx:       map[*circuit.Stage]int{},
		ix: loadIndex{
			gateCap: map[string]float64{},
			nodeCap: map[string]float64{},
		},
	}
}

// putScratch clears every per-request pointer before pooling, so an idle
// Analyzer never pins a finished request's netlist, stages or results.
func (a *Analyzer) putScratch(s *analyzeScratch) {
	clear(s.producer)
	clear(s.predFall)
	clear(s.predRise)
	clear(s.classSeen)
	clear(s.idx)
	clear(s.ix.gateCap)
	clear(s.ix.nodeCap)
	for m := range s.loadMaps {
		clear(s.loadMaps[m])
	}
	s.loadUsed = 0
	clear(s.levelBuf)
	s.levelBuf = s.levelBuf[:0]
	clear(s.levels)
	s.levels = s.levels[:0]
	// The per-level slabs are cleared to capacity, not length: a level
	// smaller than an earlier one leaves that level's tail behind.
	items := s.items[:cap(s.items)]
	for i := range items {
		kb := items[i].keyBuf
		items[i] = workItem{keyBuf: kb[:0]}
	}
	s.items = s.items[:0]
	clear(s.evs[:cap(s.evs)])
	s.evs = s.evs[:0]
	clear(s.ins[:cap(s.ins)])
	s.ins = s.ins[:0]
	clear(s.nodeBuf)
	s.nodeBuf = s.nodeBuf[:0]
	a.scratch.Put(s)
}

// loadMap hands out a cleared pooled load map. resetLoadMaps begins reuse
// from the start of the pool; callers do so per level, since an output's map
// is dead once its level's apply phase completes.
func (s *analyzeScratch) loadMap() map[string]float64 {
	if s.loadUsed < len(s.loadMaps) {
		m := s.loadMaps[s.loadUsed]
		s.loadUsed++
		clear(m)
		return m
	}
	m := map[string]float64{}
	s.loadMaps = append(s.loadMaps, m)
	s.loadUsed++
	return m
}

func (s *analyzeScratch) resetLoadMaps() { s.loadUsed = 0 }

// grownInts returns b with length n, reusing its backing array when it fits.
// Contents are unspecified; callers that need zeroing do it themselves
// (seenStamp deliberately does NOT — see the stamp idiom above).
func grownInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// levelize groups stages into dependency levels with Kahn's algorithm:
// level 0 holds stages with no in-stage producers, level k+1 holds stages
// whose producers all sit in levels ≤ k. Stages within a level are ordered
// by ascending ExtractStages index, so the schedule — and therefore the
// sequential apply order — is deterministic. A cycle in the stage graph is a
// combinational loop and is rejected. The returned level slices alias the
// scratch's backing array and are only valid until the next request.
func (s *analyzeScratch) levelize(stages []*circuit.Stage, producer map[string]*circuit.Stage) ([][]*circuit.Stage, error) {
	n := len(stages)
	for i, st := range stages {
		s.idx[st] = i
	}
	s.indeg = grownInts(s.indeg, n)
	clear(s.indeg)
	s.seenStamp = grownInts(s.seenStamp, n)
	if cap(s.consumers) < n {
		s.consumers = make([][]int, n)
	}
	s.consumers = s.consumers[:n]
	for i := range s.consumers {
		s.consumers[i] = s.consumers[i][:0]
	}
	for i, st := range stages {
		s.stamp++
		for _, in := range st.Inputs {
			p, ok := producer[in]
			if !ok || p == st {
				continue
			}
			j := s.idx[p]
			if s.seenStamp[j] == s.stamp {
				continue
			}
			s.seenStamp[j] = s.stamp
			s.consumers[j] = append(s.consumers[j], i)
			s.indeg[i]++
		}
	}
	cur, next := s.cur[:0], s.next[:0]
	for i := range stages {
		if s.indeg[i] == 0 {
			cur = append(cur, i)
		}
	}
	if cap(s.levelBuf) < n {
		s.levelBuf = make([]*circuit.Stage, 0, n)
	}
	buf := s.levelBuf[:0]
	levels := s.levels[:0]
	processed := 0
	for len(cur) > 0 {
		// Deterministic in-level order: ascending original index.
		slices.Sort(cur)
		start := len(buf)
		next = next[:0]
		for _, i := range cur {
			buf = append(buf, stages[i])
			processed++
			for _, c := range s.consumers[i] {
				if s.indeg[c]--; s.indeg[c] == 0 {
					next = append(next, c)
				}
			}
		}
		levels = append(levels, buf[start:len(buf):len(buf)])
		cur, next = next, cur
	}
	s.cur, s.next = cur, next
	s.levelBuf, s.levels = buf, levels
	if processed != n {
		for i := range stages {
			if s.indeg[i] > 0 {
				return nil, errLoop(stages[i].Name)
			}
		}
	}
	return levels, nil
}

// appendStageKey appends the stage-content key for (st, out): the observed
// output plus every edge's kind, connectivity, gate and geometry, sorted so
// edge declaration order drops out. Byte-identical to the historical
// fmt.Sprintf/sort.Strings formatting, without the per-edge allocations.
func (s *analyzeScratch) appendStageKey(b []byte, st *circuit.Stage, out string) []byte {
	b = append(b, out...)
	b = append(b, '|')
	seg := s.segBuf[:0]
	offs := s.segOffs[:0]
	for _, e := range st.Edges {
		offs = append(offs, len(seg))
		seg = appendEdgeKey(seg, e)
	}
	offs = append(offs, len(seg))
	s.segBuf, s.segOffs = seg, offs
	ne := len(st.Edges)
	ord := s.segOrd[:0]
	for i := 0; i < ne; i++ {
		ord = append(ord, i)
	}
	// Insertion sort: stages have a handful of edges, and the comparisons
	// are plain memcmp over the segment bytes.
	for i := 1; i < ne; i++ {
		for j := i; j > 0 && bytes.Compare(seg[offs[ord[j]]:offs[ord[j]+1]], seg[offs[ord[j-1]]:offs[ord[j-1]+1]]) < 0; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	s.segOrd = ord
	for _, i := range ord {
		b = append(b, seg[offs[i]:offs[i+1]]...)
		b = append(b, ';')
	}
	return b
}

// appendEdgeKey appends one edge in the exact historical format
// "%v:%s>%s@%s:%g:%g:%g" (strconv's shortest 'g' is what %g prints).
func appendEdgeKey(b []byte, e *circuit.StageEdge) []byte {
	b = append(b, e.Kind.String()...)
	b = append(b, ':')
	b = append(b, e.Src...)
	b = append(b, '>')
	b = append(b, e.Snk...)
	b = append(b, '@')
	b = append(b, e.Gate...)
	b = append(b, ':')
	b = strconv.AppendFloat(b, e.W, 'g', -1, 64)
	b = append(b, ':')
	b = strconv.AppendFloat(b, e.L, 'g', -1, 64)
	b = append(b, ':')
	b = strconv.AppendFloat(b, e.R, 'g', -1, 64)
	return b
}

// appendLoadDigest appends the canonical load digest: sorted node:cap pairs
// at 6 significant digits (see loadDigest for why the digest is part of the
// cache key at all).
func (s *analyzeScratch) appendLoadDigest(b []byte, loads map[string]float64) []byte {
	if len(loads) == 0 {
		return b
	}
	nodes := s.nodeBuf[:0]
	for n := range loads {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	s.nodeBuf = nodes
	for _, n := range nodes {
		b = append(b, n...)
		b = append(b, ':')
		b = strconv.AppendFloat(b, loads[n], 'e', 6, 64)
		b = append(b, ',')
	}
	return b
}
