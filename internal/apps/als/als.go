// Package als implements regularised Alternating Least Squares matrix
// factorisation — the collaborative-filtering workload the paper's §2.2
// cites for SDDMM (Koren et al.'s "Matrix Factorization Techniques for
// Recommender Systems"). Ratings R (users×items, sparse) are factored as
// U·Vᵀ; each half-step solves an independent k×k normal-equation system
// per user (or item) over the observed ratings, and the training-error
// evaluation is an SDDMM over the ratings support.
package als

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

// SDDMMer samples Y·Xᵀ on the ratings support: it must be bound to a
// matrix with R's sparsity pattern and *unit values*, so the SDDMM's
// Hadamard scaling leaves the raw dot products (predicted ratings). Both
// the plain kernels and the root package's Pipeline satisfy it when
// constructed over PatternOf(R). It is the per-epoch SDDMM the paper
// accelerates.
type SDDMMer interface {
	SDDMM(x, y *dense.Matrix) (*sparse.CSR, error)
}

// PatternOf returns a copy of r with every stored value set to 1 — the
// matrix an SDDMMer for this model must be bound to.
func PatternOf(r *sparse.CSR) *sparse.CSR {
	p := r.Clone()
	for i := range p.Val {
		p.Val[i] = 1
	}
	return p
}

// Model holds the factorisation state.
type Model struct {
	R  *sparse.CSR // users × items ratings
	RT *sparse.CSR // items × users (transpose, for the item half-step)
	U  *dense.Matrix
	V  *dense.Matrix
	// Lambda is the L2 regularisation weight.
	Lambda float32
	// Eval computes the sampled prediction U·Vᵀ on R's support.
	Eval SDDMMer
}

// plainEval is the default SDDMM provider (row-wise kernel).
type plainEval struct{ s *sparse.CSR }

func (p plainEval) SDDMM(x, y *dense.Matrix) (*sparse.CSR, error) {
	out := p.s.Clone()
	return out, kernels.SDDMMRowWiseIntoCtx(context.Background(), out, p.s, x, y)
}

// New initialises a rank-k model with deterministic random factors.
// eval may be nil, in which case the plain row-wise SDDMM is used.
func New(r *sparse.CSR, k int, lambda float32, seed int64, eval SDDMMer) (*Model, error) {
	if k <= 0 {
		return nil, fmt.Errorf("als: rank must be positive, got %d", k)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("als: ratings: %w", err)
	}
	if eval == nil {
		eval = plainEval{PatternOf(r)}
	}
	u := dense.NewRandom(r.Rows, k, seed)
	u.Scale(0.1)
	v := dense.NewRandom(r.Cols, k, seed+1)
	v.Scale(0.1)
	return &Model{
		R: r, RT: sparse.Transpose(r),
		U: u, V: v, Lambda: lambda, Eval: eval,
	}, nil
}

// Epoch runs one full alternation (solve U given V, then V given U) and
// returns the RMSE over the observed ratings *after* the update.
func (m *Model) Epoch() (float64, error) {
	if err := solveSide(m.R, m.U, m.V, m.Lambda); err != nil {
		return 0, fmt.Errorf("als: user step: %w", err)
	}
	if err := solveSide(m.RT, m.V, m.U, m.Lambda); err != nil {
		return 0, fmt.Errorf("als: item step: %w", err)
	}
	return m.RMSE()
}

// RMSE evaluates the root-mean-square error over the ratings support
// using the model's SDDMM provider (which samples raw predictions; see
// SDDMMer).
func (m *Model) RMSE() (float64, error) {
	pred, err := m.Eval.SDDMM(m.V, m.U)
	if err != nil {
		return 0, err
	}
	if !pred.SameStructure(m.R) {
		return 0, fmt.Errorf("als: evaluator structure does not match ratings")
	}
	if m.R.NNZ() == 0 {
		return 0, nil
	}
	var s float64
	for j := range pred.Val {
		e := float64(m.R.Val[j] - pred.Val[j])
		s += e * e
	}
	return math.Sqrt(s / float64(m.R.NNZ())), nil
}

// solveSide updates each row u_i of `solve` by ridge regression against
// the fixed factor: u_i = (Vᵢᵀ Vᵢ + λ n_i I)⁻¹ Vᵢᵀ r_i, where Vᵢ stacks
// the fixed factor rows of the items user i rated.
func solveSide(r *sparse.CSR, solve, fixed *dense.Matrix, lambda float32) error {
	k := solve.Cols
	ata := make([]float64, k*k)
	atb := make([]float64, k)
	for i := 0; i < r.Rows; i++ {
		cols, vals := r.RowCols(i), r.RowVals(i)
		if len(cols) == 0 {
			continue
		}
		for x := range ata {
			ata[x] = 0
		}
		for x := range atb {
			atb[x] = 0
		}
		for j, c := range cols {
			f := fixed.Row(int(c))
			for a := 0; a < k; a++ {
				fa := float64(f[a])
				atb[a] += fa * float64(vals[j])
				for b := a; b < k; b++ {
					ata[a*k+b] += fa * float64(f[b])
				}
			}
		}
		reg := float64(lambda) * float64(len(cols))
		for a := 0; a < k; a++ {
			ata[a*k+a] += reg
			for b := 0; b < a; b++ {
				ata[a*k+b] = ata[b*k+a] // symmetrise lower triangle
			}
		}
		sol, err := choleskySolve(ata, atb, k)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		row := solve.Row(i)
		for a := 0; a < k; a++ {
			row[a] = float32(sol[a])
		}
	}
	return nil
}

// choleskySolve solves the SPD system A·x = b (A row-major k×k,
// overwritten) via Cholesky decomposition.
func choleskySolve(a, b []float64, k int) ([]float64, error) {
	// Decompose A = L·Lᵀ in place (lower triangle).
	for c := 0; c < k; c++ {
		d := a[c*k+c]
		for s := 0; s < c; s++ {
			d -= a[c*k+s] * a[c*k+s]
		}
		if d <= 0 {
			return nil, fmt.Errorf("als: normal matrix not positive definite (pivot %d: %g)", c, d)
		}
		a[c*k+c] = math.Sqrt(d)
		for r := c + 1; r < k; r++ {
			v := a[r*k+c]
			for s := 0; s < c; s++ {
				v -= a[r*k+s] * a[c*k+s]
			}
			a[r*k+c] = v / a[c*k+c]
		}
	}
	// Forward substitution L·y = b.
	y := make([]float64, k)
	for r := 0; r < k; r++ {
		v := b[r]
		for s := 0; s < r; s++ {
			v -= a[r*k+s] * y[s]
		}
		y[r] = v / a[r*k+r]
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, k)
	for r := k - 1; r >= 0; r-- {
		v := y[r]
		for s := r + 1; s < k; s++ {
			v -= a[s*k+r] * x[s]
		}
		x[r] = v / a[r*k+r]
	}
	return x, nil
}
