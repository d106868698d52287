package sta

import (
	"fmt"
	"math"

	"qwm/internal/circuit"
)

// preflight is the STA engine's input gate: every check a malformed netlist
// can fail before any solver work starts, each wrapped in ErrInvalidNetlist
// so callers classify the whole family with one errors.Is. It layers on top
// of circuit.Netlist.Validate (device-local sanity) the cross-device checks
// only an analysis-level view can make: duplicate device names, non-finite
// parameters, and floating capacitor terminals. Combinational cycles are
// detected later by levelization and wrapped with the same sentinel.
func preflight(n *circuit.Netlist) error {
	if n == nil {
		return fmt.Errorf("%w: nil netlist", ErrInvalidNetlist)
	}
	if err := n.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidNetlist, err)
	}

	// Duplicate device names (across all device kinds): a name collision
	// makes reports and incremental edits ambiguous. Unnamed devices are
	// skipped — the builder APIs allow them and they collide vacuously.
	// Both maps are sized from the device counts up front, so neither
	// rehashes while it fills.
	nt, nr, nv := len(n.Transistors), len(n.Resistors), len(n.VSources)
	seen := make(map[string]string, nt+nr+nv+len(n.Capacitors))
	dup := func(name, kind string) error {
		if name == "" {
			return nil
		}
		if prev, ok := seen[name]; ok {
			return fmt.Errorf("%w: duplicate device name %q (%s and %s)", ErrInvalidNetlist, name, prev, kind)
		}
		seen[name] = kind
		return nil
	}
	finite := func(name string, vals ...float64) error {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: device %q has a non-finite parameter %v", ErrInvalidNetlist, name, v)
			}
		}
		return nil
	}

	// touch counts how many device terminals (transistor channel/gate,
	// resistor ends, source ends) connect to each node.
	touch := make(map[string]int, nt+nr+nv)
	bump := func(nodes ...string) {
		for _, nd := range nodes {
			touch[circuit.CanonName(nd)]++
		}
	}
	for _, t := range n.Transistors {
		if err := dup(t.Name, "transistor"); err != nil {
			return err
		}
		if err := finite(t.Name, t.W, t.L); err != nil {
			return err
		}
		bump(t.Drain, t.Gate, t.Source)
	}
	for _, r := range n.Resistors {
		if err := dup(r.Name, "resistor"); err != nil {
			return err
		}
		if err := finite(r.Name, r.R); err != nil {
			return err
		}
		bump(r.A, r.B)
	}
	for _, s := range n.VSources {
		if err := dup(s.Name, "source"); err != nil {
			return err
		}
		bump(s.A, s.B)
	}
	for _, c := range n.Capacitors {
		if err := dup(c.Name, "capacitor"); err != nil {
			return err
		}
		if err := finite(c.Name, c.C); err != nil {
			return err
		}
	}

	// Dangling capacitor terminals: a cap wired to a net no transistor,
	// resistor or source touches models load on a node that cannot move —
	// almost always a typo in the node name. Rails are exempt (they are
	// implicit nets). The count deliberately excludes capacitor terminals
	// themselves: two caps in series between otherwise-floating nets are
	// just as dead as one.
	for _, c := range n.Capacitors {
		for _, nd := range [2]string{c.A, c.B} {
			nd = circuit.CanonName(nd)
			if nd == circuit.GroundNode || nd == circuit.SupplyNode {
				continue
			}
			if touch[nd] == 0 {
				return fmt.Errorf("%w: capacitor %q terminal %q is floating (no device drives the node)", ErrInvalidNetlist, c.Name, nd)
			}
		}
	}
	return nil
}
