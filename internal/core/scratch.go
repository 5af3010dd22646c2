package core

import (
	"sync"

	"repro/internal/matrix"
	"repro/internal/structural"
)

// scratch is the pooled working memory of the per-candidate kernel: the
// element-level lsim table, the node-level lsim and the TreeMatch result
// matrices (MatchScore's, which it never returns), and TreeMatch's touched
// flags and basis slices. Each call takes one scratch from scratchPool for
// its whole run and gives it back when done, so concurrent calls never
// share one. Every buffer is reshaped (and so cleared) before use.
type scratch struct {
	elem, lsim matrix.Matrix
	st         structural.Result
	tm         structural.Scratch
}

// maxPooledCells caps the matrix cells a scratch may hold and still go
// back to the pool (2^18 cells: 2 MiB of float64). A scratch grown past it
// by one huge pair is dropped instead, so that pair's matrices are not
// pinned in the pool for the calls that follow.
const maxPooledCells = 1 << 18

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool unless it outgrew maxPooledCells.
func putScratch(sc *scratch) {
	if sc.cells() > maxPooledCells {
		return
	}
	scratchPool.Put(sc)
}

// cells is the number of matrix cells sc's buffers hold.
func (sc *scratch) cells() int {
	return sc.elem.Cap() + sc.lsim.Cap() + sc.st.SSim.Cap() + sc.st.WSim.Cap()
}
