package dense

import (
	"sync"

	"repro/internal/faultinject"
)

// Scratch-matrix pooling for the zero-allocation serving path: the
// pipeline-level SpMM/SDDMM need a temporary matrix in reordered row
// space before permuting into the caller's output. Pooling those
// temporaries (and the kernels' pooled job state) makes a steady-state
// *IntoCtx call allocation-free.
//
// The pool is capacity-based: Get reuses any pooled matrix whose
// backing slice is large enough, so serving workloads with a stable
// shape hit the pool every time. Wildly varying shapes degrade to
// fresh allocations, never to incorrect reuse.

var matrixPool sync.Pool

// Get returns a rows×cols scratch matrix, reusing pooled storage when
// possible. The contents are unspecified (kernels overwrite their
// destination); call Zero if zeroed memory is needed. Return the matrix
// with Put when done.
func Get(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		return New(rows, cols) // panics with the standard message
	}
	n := rows * cols
	// A pool failure is recoverable by construction: serving simply
	// falls back to a fresh allocation, trading steady-state
	// allocation-freedom for availability.
	if faultinject.Fire("dense.pool") != nil {
		return New(rows, cols)
	}
	if v := matrixPool.Get(); v != nil {
		m := v.(*Matrix)
		if cap(m.Data) >= n {
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:n]
			return m
		}
		// Too small for this request; let it be collected rather than
		// cycling undersized buffers through the pool.
	}
	return New(rows, cols)
}

// Put returns a matrix obtained from Get (or any matrix the caller no
// longer needs) to the scratch pool. The caller must not use m after
// Put. Put(nil) is a no-op.
func Put(m *Matrix) {
	if m == nil || m.Data == nil {
		return
	}
	// Mirror of the Get site: an injected failure drops the matrix on
	// the floor (collected by the GC) instead of pooling it.
	if faultinject.Fire("dense.pool") != nil {
		return
	}
	matrixPool.Put(m)
}
