package main

import (
	"fmt"
	"math"

	"gs3/internal/core"
	"gs3/internal/geom"
	"gs3/internal/radio"
	"gs3/internal/traffic"
)

// The checks below test the program's outputs against the paper's
// structural properties, computed here from the snapshot's raw node
// views. They deliberately do not call internal/check, which the
// convergence waits already use: a fault shared by the checker and the
// protocol would pass both.

// checkStructure verifies a settled or healed structure: no alive node
// is left in bootup; every associate's head is alive, holds the head
// role and lies within the search radius √3R + 2Rt; and every head's
// parent chain reaches the big node without repeating a head. It also
// returns the longest parent chain in hops.
func checkStructure(snap core.Snapshot) (violations []string, longest int) {
	reach := snap.Config.SearchRadius() + 1e-9
	bootup := 0
	for _, v := range snap.Nodes {
		switch v.Status {
		case core.StatusBootup:
			bootup++
		case core.StatusAssociate:
			h, ok := snap.View(v.Head)
			switch {
			case !ok:
				violations = append(violations, fmt.Sprintf("associate %d: head %d is not alive", v.ID, v.Head))
			case !h.IsHead():
				violations = append(violations, fmt.Sprintf("associate %d: head %d is not a head (%v)", v.ID, v.Head, h.Status))
			case v.Pos.Dist(h.Pos) > reach:
				violations = append(violations, fmt.Sprintf("associate %d: head %d is %.2f away, beyond %.2f", v.ID, v.Head, v.Pos.Dist(h.Pos), reach))
			}
		}
	}
	if bootup > 0 {
		violations = append(violations, fmt.Sprintf("%d alive nodes left in bootup", bootup))
	}
	heads := snap.Heads()
	for _, h := range heads {
		n, err := chainLength(snap, len(heads), h)
		if err != nil {
			violations = append(violations, err.Error())
		}
		longest = max(longest, n)
	}
	return violations, longest
}

// chainLength walks head h's parent chain to the big node and returns
// its length in hops. A chain of heads hops or more must have visited
// some head twice.
func chainLength(snap core.Snapshot, heads int, h core.NodeView) (int, error) {
	hops := 0
	for v := h; v.ID != snap.BigID; hops++ {
		if hops >= heads {
			return 0, fmt.Errorf("head %d: parent chain repeats a head", h.ID)
		}
		p, ok := snap.View(v.Parent)
		if !ok || !p.IsHead() {
			return 0, fmt.Errorf("head %d: parent chain reaches %d, which is not an alive head", h.ID, v.Parent)
		}
		v = p
	}
	return hops, nil
}

// checkHeadCount compares the head count of a settled structure,
// deployed on the disk of the given radius around the origin, with the
// cells of the hexagonal lattice of pitch √3R that the paper's ideal
// structure lays from the big node's IL along the global reference
// direction. Every cell whose IL lies in the disk must get a head; one
// whose IL lies up to Rt beyond the rim may, when a node stands close
// enough. The count may stray 2% beyond that range.
func checkHeadCount(snap core.Snapshot, radius float64) []string {
	big, ok := snap.View(snap.BigID)
	if !ok {
		return []string{"the big node is missing"}
	}
	cfg := snap.Config
	lo := latticePoints(big.IL, cfg.HeadSpacing(), cfg.GR, radius)
	hi := latticePoints(big.IL, cfg.HeadSpacing(), cfg.GR, radius+cfg.Rt)
	heads := len(snap.Heads())
	if float64(heads) < 0.98*float64(lo) || float64(heads) > 1.02*float64(hi) {
		return []string{fmt.Sprintf("%d heads, expected %d to %d cells of the disk, ±2%%", heads, lo, hi)}
	}
	return nil
}

// latticePoints counts the points of the hexagonal lattice with the
// given pitch and first axis at angle gr, anchored at anchor, that lie
// within radius of the origin. A lattice vector a·e₁ + b·e₂ is at least
// pitch·√3/2·max(|a|,|b|) long, which bounds the coordinates to visit.
func latticePoints(anchor geom.Point, pitch, gr, radius float64) int {
	c1, s1 := pitch*math.Cos(gr), pitch*math.Sin(gr)
	c2, s2 := pitch*math.Cos(gr+math.Pi/3), pitch*math.Sin(gr+math.Pi/3)
	k := int((radius+anchor.Dist(geom.Point{}))/(pitch*math.Sqrt(3)/2)) + 1
	n := 0
	for a := -k; a <= k; a++ {
		for b := -k; b <= k; b++ {
			x := anchor.X + float64(a)*c1 + float64(b)*c2
			y := anchor.Y + float64(a)*s1 + float64(b)*s2
			if math.Hypot(x, y) <= radius {
				n++
			}
		}
	}
	return n
}

// headState is what the locality check remembers of a head.
type headState struct {
	id      radio.NodeID
	pos, il geom.Point
}

func headStates(snap core.Snapshot) []headState {
	heads := snap.Heads()
	out := make([]headState, len(heads))
	for i, h := range heads {
		out[i] = headState{h.ID, h.Pos, h.IL}
	}
	return out
}

// checkLocality verifies that healing stayed local: every head that
// stood outside the strike disk before the strike still holds the head
// role, with the same ideal location, after healing.
func checkLocality(before []headState, after core.Snapshot, centre geom.Point, radius float64) []string {
	var violations []string
	for _, b := range before {
		if b.pos.Dist(centre) <= radius {
			continue
		}
		v, ok := after.View(b.id)
		switch {
		case !ok || !v.IsHead():
			violations = append(violations, fmt.Sprintf("head %d, %.1f from the strike centre, lost its head role", b.id, b.pos.Dist(centre)))
		case v.IL.Dist(b.il) > 1e-9:
			violations = append(violations, fmt.Sprintf("head %d, %.1f from the strike centre, moved its IL by %.3g", b.id, b.pos.Dist(centre), v.IL.Dist(b.il)))
		}
	}
	return violations
}

// checkTraffic verifies the data plane's accounting — every packet the
// workload asked for was generated, and each is either delivered or
// lost — and, for a convergecast-only load, that no delivered packet
// took more hops than one (associate to head) plus the longest parent
// chain of the healed structure.
func checkTraffic(rep traffic.Report, packets int, convergecast bool, longest int) []string {
	var violations []string
	if rep.Generated != uint64(packets) || rep.Delivered+rep.Lost() != rep.Generated {
		violations = append(violations, fmt.Sprintf("delivered %d + lost %d, generated %d, requested %d",
			rep.Delivered, rep.Lost(), rep.Generated, packets))
	}
	if rep.Delivered == 0 {
		violations = append(violations, "no packet delivered")
	}
	if convergecast && rep.MaxHops > float64(1+longest) {
		violations = append(violations, fmt.Sprintf("a convergecast packet took %v hops, longest parent chain is %d", rep.MaxHops, longest))
	}
	return violations
}
