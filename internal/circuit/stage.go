package circuit

import (
	"slices"
	"strconv"
	"strings"
)

// Stage is the paper's Definition 1: a CMOS logic stage as a polar directed
// graph. Vertices are circuit nodes (with VDD as source pole and ground as
// sink pole); edges are the channel terminals of transistors and resistive
// wire segments. Inputs are the gate nets of the stage's transistors;
// outputs are the nodes observed by downstream logic.
type Stage struct {
	Name    string
	Nodes   []string // internal + boundary nodes, sorted, excluding rails
	Edges   []*StageEdge
	Inputs  []string // gate net names, sorted
	Outputs []string // observed node names
}

// StageEdge is one element of the stage graph.
type StageEdge struct {
	Kind DeviceKind // KindNMOS, KindPMOS or KindWire
	Src  string     // node closer to the supply pole by convention
	Snk  string
	Gate string  // input net for transistors, "" for wires
	W, L float64 // transistor geometry
	R    float64 // wire resistance (KindWire)
	Ref  *Transistor
}

// ExtractStages partitions a netlist into logic stages by channel-connected
// components: transistors whose source/drain terminals are transitively
// connected through non-rail nodes belong to the same stage (the paper's
// "set of channel-connected transistors and wire segments"). Resistors join
// components the same way wires do. Gate terminals do NOT connect stages —
// that is the partition boundary that makes per-stage analysis possible.
//
// Nets driven by sources (rails and primary inputs) act as partition
// boundaries like rails. Outputs of each stage are the nodes that appear as
// gate inputs of some transistor or are listed in observed. Stages are
// ordered by their smallest node name and named stage0, stage1, ...; each
// stage's edges keep netlist order (transistors, then resistors).
//
// Node names are looked up once, in one map from name to a dense id;
// everything else — union-find, boundary and gate-net flags, group
// membership — is a slice indexed by that id, and one sort of the channel
// nodes by name yields every stage's sorted Nodes and the stage order.
func ExtractStages(n *Netlist, observed []string) []*Stage {
	nt, nr := len(n.Transistors), len(n.Resistors)
	hint := nt + nr + len(n.VSources) + 2
	ids, names := make(map[string]int32, hint), make([]string, 0, hint)
	intern := func(name string) int32 {
		v, ok := ids[name]
		if !ok {
			v = int32(len(names))
			ids[name] = v
			names = append(names, name)
		}
		return v
	}
	intern(GroundNode)
	intern(SupplyNode)
	for _, v := range n.VSources {
		intern(v.A)
	}
	// Everything named so far is a boundary; ids are handed out in order.
	nBoundary := int32(len(names))

	// Channel terminals of every element (transistors first) and gates.
	ends := make([]int32, 2*(nt+nr))
	gates := make([]int32, nt)
	for i, t := range n.Transistors {
		ends[2*i], ends[2*i+1], gates[i] = intern(t.Drain), intern(t.Source), intern(t.Gate)
	}
	for i, r := range n.Resistors {
		ends[2*(nt+i)], ends[2*(nt+i)+1] = intern(r.A), intern(r.B)
	}
	boundary := func(id int32) bool { return id < nBoundary }

	// Per-node facts, indexed by id: union-find parent, the group of a
	// union-find root, whether a channel terminal touches the node, and
	// whether it is an output (a gate net or an observed name).
	const none = -1
	node := make([]struct {
		parent, group  int32
		channel, isOut bool
	}, len(names))
	for i := range node {
		node[i].parent, node[i].group = int32(i), none
	}
	find := func(a int32) int32 {
		for node[a].parent != a {
			node[a].parent = node[node[a].parent].parent
			a = node[a].parent
		}
		return a
	}
	for e := 0; e < len(ends); e += 2 {
		a, b := ends[e], ends[e+1]
		node[a].channel, node[b].channel = true, true
		if !boundary(a) && !boundary(b) {
			if ra, rb := find(a), find(b); ra != rb {
				node[ra].parent = rb
			}
		}
	}
	for _, g := range gates {
		node[g].isOut = true
	}
	for _, o := range observed {
		if v, ok := ids[CanonName(o)]; ok {
			node[v].isOut = true
		}
	}

	// Group elements by the component of their first non-boundary channel
	// terminal; elements with both ends on boundaries belong to no stage.
	elemGroup := make([]int32, nt+nr)
	ng := int32(0)
	for e := range elemGroup {
		nd := ends[2*e]
		if boundary(nd) {
			nd = ends[2*e+1]
		}
		if boundary(nd) {
			elemGroup[e] = none
			continue
		}
		r := find(nd)
		if node[r].group == none {
			node[r].group = ng
			ng++
		}
		elemGroup[e] = node[r].group
	}
	if ng == 0 {
		return nil
	}

	// Stage order and sorted Nodes from one sort of the channel nodes: a
	// group's first node in name order is its smallest, so groups take
	// their stage index in order of first appearance.
	nodes := make([]int32, 0, len(node)-int(nBoundary))
	for id := nBoundary; id < int32(len(node)); id++ {
		if node[id].channel {
			nodes = append(nodes, id)
		}
	}
	slices.SortFunc(nodes, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	stageOf := make([]int32, ng)
	for i := range stageOf {
		stageOf[i] = none
	}
	// Per-stage counts size every slice exactly: nodes and outputs from the
	// sorted node walk, edges and non-empty gates from the elements.
	count := make([]struct{ nodes, outs, edges, gates, nameEnd int }, ng)
	next := int32(0)
	for _, id := range nodes {
		g := node[find(id)].group
		if stageOf[g] == none {
			stageOf[g] = next
			next++
		}
		c := &count[stageOf[g]]
		c.nodes++
		if node[id].isOut {
			c.outs++
		}
	}
	for e, g := range elemGroup {
		if g == none {
			continue
		}
		elemGroup[e] = stageOf[g] // from here on, the element's stage
		c := &count[stageOf[g]]
		c.edges++
		if e < nt && n.Transistors[e].Gate != "" {
			c.gates++
		}
	}

	// One backing array each for stages, names and edges, carved into
	// per-stage slices with capped capacity. A stage with no outputs or no
	// gate inputs keeps a nil slice.
	nstr, nedge := 0, 0
	for _, c := range count {
		nstr += c.nodes + c.outs + c.gates
		nedge += c.edges
	}
	slab := make([]Stage, ng)
	stages := make([]*Stage, ng)
	strs := make([]string, 0, nstr)
	edgePtrs := make([]*StageEdge, 0, nedge)
	// Stage names are substrings of one "stage0stage1…" string.
	nameBuf := make([]byte, 0, int(ng)*len("stage0000"))
	for si := range count {
		nameBuf = strconv.AppendInt(append(nameBuf, "stage"...), int64(si), 10)
		count[si].nameEnd = len(nameBuf)
	}
	stageNames, nameStart := string(nameBuf), 0
	for si := range slab {
		st, c := &slab[si], count[si]
		stages[si] = st
		st.Name, nameStart = stageNames[nameStart:c.nameEnd], c.nameEnd
		st.Nodes, strs = carve(strs, c.nodes)
		st.Outputs, strs = carve(strs, c.outs)
		st.Inputs, strs = carve(strs, c.gates)
		st.Edges, edgePtrs = carve(edgePtrs, c.edges)
	}
	for _, id := range nodes {
		st := &slab[stageOf[node[find(id)].group]]
		st.Nodes = append(st.Nodes, names[id])
		if node[id].isOut {
			st.Outputs = append(st.Outputs, names[id])
		}
	}
	edges := make([]StageEdge, 0, nedge)
	for e, si := range elemGroup {
		if si == none {
			continue
		}
		st := &slab[si]
		if e < nt {
			t := n.Transistors[e]
			edges = append(edges, StageEdge{
				Kind: t.Kind, Src: t.Drain, Snk: t.Source, Gate: t.Gate,
				W: t.W, L: t.L, Ref: t,
			})
			if t.Gate != "" {
				st.Inputs = append(st.Inputs, t.Gate)
			}
		} else {
			r := n.Resistors[e-nt]
			edges = append(edges, StageEdge{Kind: KindWire, Src: r.A, Snk: r.B, R: r.R})
		}
		st.Edges = append(st.Edges, &edges[len(edges)-1])
	}
	// Inputs: each stage's distinct gate nets, sorted.
	for si := range slab {
		st := &slab[si]
		slices.Sort(st.Inputs)
		st.Inputs = slices.Compact(st.Inputs)
	}
	return stages
}

// carve returns an empty slice over the next k free slots of buf's spare
// capacity, capacity capped at k, and buf grown over them; nil when k is 0.
func carve[T any](buf []T, k int) (part, rest []T) {
	if k == 0 {
		return nil, buf
	}
	n := len(buf)
	return buf[n : n : n+k], buf[:n+k]
}
