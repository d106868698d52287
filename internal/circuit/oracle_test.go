package circuit

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// This file keeps the string-keyed extractor that ExtractStages replaced,
// verbatim, as refExtractStages: the dense-id extractor must return a
// reflect.DeepEqual result on every netlist (stage order and names, Nodes,
// Edges order, Inputs and Outputs), which is what keeps stage cache keys
// unchanged.

// refExtractStages partitions a netlist into logic stages by channel-connected
// components: transistors whose source/drain terminals are transitively
// connected through non-rail nodes belong to the same stage (the paper's
// "set of channel-connected transistors and wire segments"). Resistors join
// components the same way wires do. Gate terminals do NOT connect stages —
// that is the partition boundary that makes per-stage analysis possible.
//
// driven lists nets driven by sources (rails and primary inputs); they act
// as partition boundaries like rails. Outputs of each stage are the nodes
// that appear as gate inputs of some *other* component or are listed in
// observed.
func refExtractStages(n *Netlist, observed []string) []*Stage {
	isBoundary := map[string]bool{GroundNode: true, SupplyNode: true}
	for _, v := range n.VSources {
		isBoundary[v.A] = true
	}

	// Union-find over non-boundary nodes touched by channel terminals.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			parent[x] = find(p)
		}
		return parent[x]
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	connect := func(a, b string) {
		switch {
		case isBoundary[a] && isBoundary[b]:
		case isBoundary[a]:
			find(b)
		case isBoundary[b]:
			find(a)
		default:
			union(a, b)
		}
	}
	for _, t := range n.Transistors {
		connect(t.Drain, t.Source)
	}
	for _, r := range n.Resistors {
		connect(r.A, r.B)
	}

	// Group elements by the component of their non-boundary terminals.
	groups := map[string]*refGroup{}
	groupOf := func(nodes ...string) *refGroup {
		for _, nd := range nodes {
			if !isBoundary[nd] {
				root := find(nd)
				g := groups[root]
				if g == nil {
					g = &refGroup{nodes: map[string]bool{}}
					groups[root] = g
				}
				return g
			}
		}
		return nil
	}
	addNodes := func(g *refGroup, nodes ...string) {
		for _, nd := range nodes {
			if !isBoundary[nd] {
				g.nodes[nd] = true
			}
		}
	}
	for _, t := range n.Transistors {
		g := groupOf(t.Drain, t.Source)
		if g == nil {
			continue // degenerate: both channel terminals on rails
		}
		addNodes(g, t.Drain, t.Source)
		kind := t.Kind
		g.edges = append(g.edges, &StageEdge{
			Kind: kind, Src: t.Drain, Snk: t.Source, Gate: t.Gate,
			W: t.W, L: t.L, Ref: t,
		})
	}
	for _, r := range n.Resistors {
		g := groupOf(r.A, r.B)
		if g == nil {
			continue
		}
		addNodes(g, r.A, r.B)
		g.edges = append(g.edges, &StageEdge{Kind: KindWire, Src: r.A, Snk: r.B, R: r.R})
	}

	// Which nodes feed gates elsewhere? Those are implicit outputs.
	gateNets := map[string]bool{}
	for _, t := range n.Transistors {
		gateNets[t.Gate] = true
	}
	obs := map[string]bool{}
	for _, o := range observed {
		obs[CanonName(o)] = true
	}

	// Deterministic ordering of stages by their smallest node name.
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool {
		return groups[roots[i]].min() < groups[roots[j]].min()
	})

	var stages []*Stage
	for si, root := range roots {
		g := groups[root]
		st := &Stage{Name: fmt.Sprintf("stage%d", si)}
		for nd := range g.nodes {
			st.Nodes = append(st.Nodes, nd)
		}
		sort.Strings(st.Nodes)
		st.Edges = g.edges
		inSet := map[string]bool{}
		for _, e := range g.edges {
			if e.Gate != "" {
				inSet[e.Gate] = true
			}
		}
		for in := range inSet {
			st.Inputs = append(st.Inputs, in)
		}
		sort.Strings(st.Inputs)
		for _, nd := range st.Nodes {
			if gateNets[nd] || obs[nd] {
				st.Outputs = append(st.Outputs, nd)
			}
		}
		stages = append(stages, st)
	}
	return stages
}

// refGroup accumulates the nodes and edges of one channel-connected component
// during stage extraction.
type refGroup struct {
	nodes map[string]bool
	edges []*StageEdge
}

func (g *refGroup) min() string {
	first := ""
	for nd := range g.nodes {
		if first == "" || nd < first {
			first = nd
		}
	}
	return first
}

// randomNetlist draws a netlist over a small name pool so components merge,
// split and touch rails often: mixed-case names (distinct nodes — the
// extractor takes names as given), rails, source-driven nets, resistors,
// gate-only nets, devices with both channel ends on boundaries, and
// observed names that are absent, upper-case or ground aliases. The empty
// name is left out: the reference orders a stage holding it by map
// iteration order.
func randomNetlist(rng *rand.Rand) (*Netlist, []string) {
	channel := []string{"0", "vdd", "a", "b", "c", "d", "e", "f", "A", "B", "n1", "N1", "w9", "in0"}
	gateOnly := []string{"in0", "in1", "g", "G", ""}
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	n := &Netlist{}
	for i := rng.Intn(4); i > 0; i-- {
		n.VSources = append(n.VSources, &VSource{Name: fmt.Sprintf("v%d", i), A: pick(channel), B: "0"})
	}
	for i := rng.Intn(14); i > 0; i-- {
		gate := pick(channel)
		if rng.Intn(3) == 0 {
			gate = pick(gateOnly)
		}
		n.Transistors = append(n.Transistors, &Transistor{
			Name: fmt.Sprintf("m%d", i), Kind: DeviceKind(rng.Intn(2)),
			Drain: pick(channel), Gate: gate, Source: pick(channel), Body: "0",
			W: float64(1+rng.Intn(4)) * 1e-6, L: 0.35e-6,
		})
	}
	for i := rng.Intn(6); i > 0; i-- {
		n.Resistors = append(n.Resistors, &Resistor{
			Name: fmt.Sprintf("r%d", i), A: pick(channel), B: pick(channel), R: float64(1 + rng.Intn(100)),
		})
	}
	var observed []string
	extra := []string{"Out", "missing", "GND", " A ", "Vdd", "b"}
	for i := rng.Intn(5); i > 0; i-- {
		if rng.Intn(2) == 0 {
			observed = append(observed, pick(extra))
		} else {
			observed = append(observed, pick(channel))
		}
	}
	return n, observed
}

func checkExtractStages(t *testing.T, n *Netlist, observed []string) {
	t.Helper()
	got, want := ExtractStages(n, observed), refExtractStages(n, observed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractStages differs from the reference (observed %q)\n got %s\nwant %s",
			observed, dumpStages(got), dumpStages(want))
	}
}

func dumpStages(sts []*Stage) string {
	var b strings.Builder
	for _, st := range sts {
		fmt.Fprintf(&b, "\n  %s nodes=%q in=%q out=%q edges=", st.Name, st.Nodes, st.Inputs, st.Outputs)
		for _, e := range st.Edges {
			fmt.Fprintf(&b, "%v:%s>%s@%s ", e.Kind, e.Src, e.Snk, e.Gate)
		}
	}
	return b.String()
}

// TestExtractStagesMatchesReference is the seeded property test: 20 000
// random netlists, each extracted by both implementations.
func TestExtractStagesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		n, observed := randomNetlist(rng)
		checkExtractStages(t, n, observed)
	}
	checkExtractStages(t, &Netlist{}, nil)
}

// RefExtractStages exports the reference to the external test package,
// whose fuzz target parses decks with internal/netlist (which imports this
// package).
var RefExtractStages = refExtractStages
