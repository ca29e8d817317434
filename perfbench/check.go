package main

import (
	"fmt"

	"wwt"
	"wwt/internal/eval"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

// rowHash is a 64-bit FNV-1a hash of answer rows: every cell and every
// row's support, in order. Equal hashes mean equal answers. It hashes in
// place, so fingerprinting inside a timed loop allocates nothing.
type rowHash uint64

const (
	fnvOffset rowHash = 14695981039346656037
	fnvPrime  rowHash = 1099511628211
)

func (h *rowHash) int(n int) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ rowHash(byte(n>>(8*i)))) * fnvPrime
	}
}

func (h *rowHash) row(cells []string, support int) {
	h.int(len(cells))
	for _, c := range cells {
		h.int(len(c))
		for i := 0; i < len(c); i++ {
			*h = (*h ^ rowHash(c[i])) * fnvPrime
		}
	}
	h.int(support)
}

// resultPrint fingerprints a Result's answer rows.
func resultPrint(res *wwt.Result) uint64 {
	h := fnvOffset
	for _, r := range res.Answer.Rows {
		h.row(r.Cells, r.Support)
	}
	return uint64(h)
}

// reference is one untimed pass over the workload: each query's answer
// fingerprint and the paper's Fig. 5 mapping error.
type reference struct {
	prints []uint64
	// errPct is the mean over queries of eval.F1Error of the answer's
	// labeling against the generator's ground truth.
	errPct float64
}

// referencePass answers every query once, in workload order.
func referencePass(answer func(wwt.Query) (*wwt.Result, error), queries []workload.Query, truth map[string][]string) (reference, error) {
	ref := reference{prints: make([]uint64, len(queries))}
	var sum float64
	for i, q := range queries {
		res, err := answer(wwt.Query{Columns: q.Columns})
		if err != nil {
			return ref, fmt.Errorf("query %d %q: %w", q.ID, q.String(), err)
		}
		ref.prints[i] = resultPrint(res)
		sum += eval.F1Error(res.Labeling, res.Tables, eval.TruthFor(q, res.Tables, truth))
		res.Release()
	}
	ref.errPct = sum / float64(len(queries))
	return ref, nil
}

// compareWithMemory answers every query on an in-memory wwt.NewEngine
// built over tables and returns the queries whose answers differ from
// want.
func compareWithMemory(tables []*wtable.Table, queries []workload.Query, want []uint64) ([]int, error) {
	eng, err := wwt.NewEngine(tables, nil)
	if err != nil {
		return nil, fmt.Errorf("in-memory engine: %w", err)
	}
	defer eng.Close()
	var diff []int
	for i, q := range queries {
		res, err := eng.Answer(wwt.Query{Columns: q.Columns})
		if err != nil {
			return nil, fmt.Errorf("in-memory query %d: %w", q.ID, err)
		}
		if resultPrint(res) != want[i] {
			diff = append(diff, q.ID)
		}
		res.Release()
	}
	return diff, nil
}
