// Package cfg builds and analyses the control-flow graph of an eBPF
// program: basic blocks, reachability and back-edge detection.
//
// The eHDL compiler requires a strictly forward-feeding pipeline
// (Section 3.5 of the paper); backward branches only occur in bounded
// loops, which Unroll rewrites into straight-line copies so that the
// remaining graph is acyclic.
package cfg

import (
	"fmt"
	"sort"

	"ehdl/internal/ebpf"
)

// Block is a maximal straight-line instruction sequence.
type Block struct {
	ID    int
	Start int // first instruction index
	End   int // one past the last instruction index
	Succs []int
	Preds []int
}

// Graph is the control-flow graph of a program.
type Graph struct {
	Prog    *ebpf.Program
	Blocks  []Block
	blockOf []int // instruction index -> block ID
}

// Build constructs the CFG. The program must validate.
func Build(prog *ebpf.Program) (*Graph, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	n := len(prog.Instructions)

	// Block leaders: entry, branch targets, and branch/exit successors.
	leader := make([]bool, n)
	leader[0] = true
	for i, ins := range prog.Instructions {
		if ins.IsBranch() {
			t, ok := prog.BranchTarget(i)
			if !ok {
				return nil, fmt.Errorf("cfg: unresolvable branch at %d", i)
			}
			leader[t] = true
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if ins.IsExit() && i+1 < n {
			leader[i+1] = true
		}
	}

	g := &Graph{Prog: prog, blockOf: make([]int, n)}
	for i := 0; i < n; i++ {
		if leader[i] {
			g.Blocks = append(g.Blocks, Block{ID: len(g.Blocks), Start: i})
		}
		g.blockOf[i] = len(g.Blocks) - 1
	}
	for i := range g.Blocks {
		if i+1 < len(g.Blocks) {
			g.Blocks[i].End = g.Blocks[i+1].Start
		} else {
			g.Blocks[i].End = n
		}
	}

	// Edges. A block has at most two successors; the successor lists and
	// the predecessor lists each share one backing array.
	succs := make([]int, 0, 2*len(g.Blocks))
	npreds := make([]int, len(g.Blocks)+1)
	for i := range g.Blocks {
		b := &g.Blocks[i]
		start := len(succs)
		last := prog.Instructions[b.End-1]
		switch {
		case last.IsExit():
			// no successors
		case last.IsBranch():
			t, _ := prog.BranchTarget(b.End - 1)
			succs = append(succs, g.blockOf[t])
			if last.IsConditional() && b.End < n && g.blockOf[b.End] != g.blockOf[t] {
				succs = append(succs, g.blockOf[b.End])
			}
		default:
			if b.End < n {
				succs = append(succs, g.blockOf[b.End])
			} else {
				return nil, fmt.Errorf("cfg: block %d falls off the program end", b.ID)
			}
		}
		b.Succs = succs[start:len(succs):len(succs)]
		for _, s := range b.Succs {
			npreds[s+1]++
		}
	}
	for i := range g.Blocks {
		npreds[i+1] += npreds[i]
	}
	preds := make([]int, len(succs))
	for i := range g.Blocks {
		g.Blocks[i].Preds = preds[npreds[i]:npreds[i]:npreds[i+1]]
	}
	for i := range g.Blocks {
		for _, s := range g.Blocks[i].Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, i)
		}
	}
	return g, nil
}

// BlockOf returns the ID of the block containing instruction index i.
func (g *Graph) BlockOf(i int) int { return g.blockOf[i] }

// Reachable returns the set of blocks reachable from the entry.
func (g *Graph) Reachable() []bool {
	visited := make([]bool, len(g.Blocks))
	stack := []int{0}
	visited[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			if !visited[s] {
				visited[s] = true
				stack = append(stack, s)
			}
		}
	}
	return visited
}

// backEdge is a control-flow edge whose target does not come after its
// source in the DFS, i.e. a loop edge.
type backEdge struct {
	From int // source block ID
	To   int // target block ID (the loop header)
}

// backEdges finds loop edges with a DFS colouring.
func (g *Graph) backEdges() []backEdge {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make([]int, len(g.Blocks))
	var edges []backEdge
	var dfs func(int)
	dfs = func(b int) {
		colour[b] = grey
		for _, s := range g.Blocks[b].Succs {
			switch colour[s] {
			case white:
				dfs(s)
			case grey:
				edges = append(edges, backEdge{From: b, To: s})
			}
		}
		colour[b] = black
	}
	dfs(0)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return edges
}

// isAcyclic reports whether the graph has no loops, the property the
// pipeline generator requires after unrolling.
func (g *Graph) isAcyclic() bool { return len(g.backEdges()) == 0 }

// TopologicalBlocks returns the reachable blocks in a topological order
// of the acyclic CFG, preferring original program order among ready
// blocks so the pipeline layout matches the bytecode layout. It fails if
// the graph still has loops.
func (g *Graph) TopologicalBlocks() ([]int, error) {
	if !g.isAcyclic() {
		return nil, fmt.Errorf("cfg: graph has back edges; unroll loops first")
	}
	reach := g.Reachable()
	indeg := make([]int, len(g.Blocks))
	for i := range g.Blocks {
		if !reach[i] {
			continue
		}
		for _, s := range g.Blocks[i].Succs {
			indeg[s]++
		}
	}
	var order []int
	ready := []int{0}
	for len(ready) > 0 {
		sort.Ints(ready)
		b := ready[0]
		ready = ready[1:]
		order = append(order, b)
		for _, s := range g.Blocks[b].Succs {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order, nil
}
