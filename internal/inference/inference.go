package inference

import (
	"fmt"

	"wwt/internal/core"
)

// Algorithm selects a collective inference method.
type Algorithm int

// Available algorithms.
const (
	Independent Algorithm = iota
	TableCentric
	AlphaExpansion
	BP
	TRWS
)

// String names the algorithm as in the paper's Table 2.
func (a Algorithm) String() string {
	switch a {
	case Independent:
		return "None"
	case TableCentric:
		return "Table-centric"
	case AlphaExpansion:
		return "α-exp"
	case BP:
		return "BP"
	case TRWS:
		return "TRWS"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists all methods in Table 2 order.
var Algorithms = []Algorithm{Independent, AlphaExpansion, BP, TRWS, TableCentric}

// Solve runs the chosen algorithm on the model and returns a labeling that
// satisfies all hard constraints.
func Solve(m *core.Model, alg Algorithm) core.Labeling {
	return SolveScratch(m, alg, nil)
}

// SolveScratch is Solve through a caller-owned scratch arena, so a warm
// arena runs a solve without reallocating its message buffers or solver
// state. The labeling is always freshly allocated and safe to retain; s
// may be reused the moment the call returns. A nil s uses a fresh private
// arena (identical to Solve).
func SolveScratch(m *core.Model, alg Algorithm, s *Scratch) core.Labeling {
	if s == nil {
		s = &Scratch{}
	}
	switch alg {
	case TableCentric:
		return solveTableCentric(m, s)
	case AlphaExpansion:
		return solveAlphaExpansion(m, true, s)
	case BP:
		return solveBP(m, s)
	case TRWS:
		return solveTRWS(m, s)
	default:
		return solveIndependent(m, s)
	}
}
