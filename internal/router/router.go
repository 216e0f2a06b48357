// Package router plans droplet routes on a defect-tolerant microfluidic
// array. Routes respect microfluidic locality (adjacent-cell moves only),
// avoid faulty cells, and can be restricted to primary cells (spares are
// reserved for reconfiguration) or to an assay's allotted footprint.
//
// Routing is breadth-first shortest path; A* is kept as a reference
// implementation that the tests compare against.
package router

import (
	"container/heap"
	"fmt"
	"sort"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
)

// Constraints restrict the cells a route may use.
type Constraints struct {
	// Faults marks unusable cells (nil = defect-free).
	Faults *defects.FaultSet
	// PrimariesOnly keeps routes off spare cells.
	PrimariesOnly bool
	// Allowed, when non-nil, restricts routes to cells with Allowed[id]
	// true (e.g. an assay's footprint).
	Allowed []bool
	// Blocked marks additional unusable cells (e.g. other droplets' parked
	// positions); nil allowed.
	Blocked map[layout.CellID]bool
}

// usable reports whether a route may pass through the cell.
func (c Constraints) usable(arr *layout.Array, id layout.CellID) bool {
	if id < 0 || int(id) >= arr.NumCells() {
		return false
	}
	if c.Faults != nil && c.Faults.IsFaulty(id) {
		return false
	}
	if c.PrimariesOnly && arr.Cell(id).Role != layout.Primary {
		return false
	}
	if c.Allowed != nil && !c.Allowed[id] {
		return false
	}
	if c.Blocked != nil && c.Blocked[id] {
		return false
	}
	return true
}

// ShortestPath returns a minimum-length path from src to dst inclusive,
// breadth-first. It returns an error when no route exists.
func ShortestPath(arr *layout.Array, src, dst layout.CellID, c Constraints) ([]layout.CellID, error) {
	if !c.usable(arr, src) {
		return nil, fmt.Errorf("router: source %d unusable", src)
	}
	if !c.usable(arr, dst) {
		return nil, fmt.Errorf("router: destination %d unusable", dst)
	}
	if src == dst {
		return []layout.CellID{src}, nil
	}
	prev := make(map[layout.CellID]layout.CellID, 64)
	prev[src] = src
	queue := []layout.CellID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range arr.Neighbors(cur) {
			if _, seen := prev[nb]; seen || !c.usable(arr, nb) {
				continue
			}
			prev[nb] = cur
			if nb == dst {
				return reconstruct(prev, src, dst), nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("router: no route from %d to %d", src, dst)
}

func reconstruct(prev map[layout.CellID]layout.CellID, src, dst layout.CellID) []layout.CellID {
	var rev []layout.CellID
	for cur := dst; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// aStarNode is a priority-queue entry.
type aStarNode struct {
	id    layout.CellID
	f     int
	index int
}

type aStarQueue []*aStarNode

func (q aStarQueue) Len() int            { return len(q) }
func (q aStarQueue) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q aStarQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *aStarQueue) Push(x interface{}) { n := x.(*aStarNode); n.index = len(*q); *q = append(*q, n) }
func (q *aStarQueue) Pop() interface{} {
	old := *q
	n := old[len(old)-1]
	*q = old[:len(old)-1]
	return n
}

// AStarPath returns a minimum-length path using A* with the hex-distance
// heuristic. Identical results to ShortestPath in length; faster on large
// arrays with distant endpoints.
func AStarPath(arr *layout.Array, src, dst layout.CellID, c Constraints) ([]layout.CellID, error) {
	if !c.usable(arr, src) {
		return nil, fmt.Errorf("router: source %d unusable", src)
	}
	if !c.usable(arr, dst) {
		return nil, fmt.Errorf("router: destination %d unusable", dst)
	}
	dstPos := arr.Cell(dst).Pos
	h := func(id layout.CellID) int { return arr.Cell(id).Pos.Distance(dstPos) }

	gScore := map[layout.CellID]int{src: 0}
	prev := map[layout.CellID]layout.CellID{src: src}
	open := &aStarQueue{}
	heap.Init(open)
	heap.Push(open, &aStarNode{id: src, f: h(src)})
	closed := map[layout.CellID]bool{}

	for open.Len() > 0 {
		cur := heap.Pop(open).(*aStarNode)
		if cur.id == dst {
			return reconstruct(prev, src, dst), nil
		}
		if closed[cur.id] {
			continue
		}
		closed[cur.id] = true
		for _, nb := range arr.Neighbors(cur.id) {
			if closed[nb] || !c.usable(arr, nb) {
				continue
			}
			g := gScore[cur.id] + 1
			if old, seen := gScore[nb]; seen && g >= old {
				continue
			}
			gScore[nb] = g
			prev[nb] = cur.id
			heap.Push(open, &aStarNode{id: nb, f: g + h(nb)})
		}
	}
	return nil, fmt.Errorf("router: no route from %d to %d", src, dst)
}

// ReachableFrom returns the cells reachable from src under the constraints,
// sorted ascending — the connectivity check used by test planning.
func ReachableFrom(arr *layout.Array, src layout.CellID, c Constraints) []layout.CellID {
	if !c.usable(arr, src) {
		return nil
	}
	seen := map[layout.CellID]bool{src: true}
	queue := []layout.CellID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range arr.Neighbors(cur) {
			if !seen[nb] && c.usable(arr, nb) {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	out := make([]layout.CellID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
