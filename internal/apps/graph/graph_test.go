package graph

import (
	"context"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

type plainAgg struct{ s *sparse.CSR }

func (a plainAgg) SpMM(x *dense.Matrix) (*dense.Matrix, error) {
	y := dense.New(a.s.Rows, x.Cols)
	return y, kernels.SpMMRowWiseIntoCtx(context.Background(), y, a.s, x)
}

// pathGraph builds the undirected path 0-1-2-...-(n-1).
func pathGraph(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	sets := make([][]int32, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			sets[i] = append(sets[i], int32(i-1))
		}
		if i+1 < n {
			sets[i] = append(sets[i], int32(i+1))
		}
	}
	m, err := sparse.FromRows(n, n, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cycleGraph builds the undirected n-cycle.
func cycleGraph(t *testing.T, n int) *sparse.CSR {
	t.Helper()
	sets := make([][]int32, n)
	for i := 0; i < n; i++ {
		sets[i] = []int32{int32((i + n - 1) % n), int32((i + 1) % n)}
	}
	m, err := sparse.FromRows(n, n, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBFSPathDepths(t *testing.T) {
	const n = 10
	g := pathGraph(t, n)
	depth, err := MultiSourceBFS(plainAgg{g}, n, []int32{0, 9}, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := depth.At(i, 0); got != float32(i) {
			t.Fatalf("depth from 0 to %d = %v, want %d", i, got, i)
		}
		if got := depth.At(i, 1); got != float32(n-1-i) {
			t.Fatalf("depth from 9 to %d = %v, want %d", i, got, n-1-i)
		}
	}
}

func TestBFSUnreachableAndDepthCap(t *testing.T) {
	// Two disconnected edges: 0-1 and 2-3.
	sets := [][]int32{{1}, {0}, {3}, {2}}
	g, err := sparse.FromRows(4, 4, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	depth, err := MultiSourceBFS(plainAgg{g}, 4, []int32{0}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if depth.At(1, 0) != 1 || depth.At(2, 0) != -1 || depth.At(3, 0) != -1 {
		t.Fatalf("disconnected depths wrong: %v", depth.Data)
	}
	// Depth cap truncates the search.
	capped, err := MultiSourceBFS(plainAgg{pathGraph(t, 10)}, 10, []int32{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if capped.At(3, 0) != 3 || capped.At(4, 0) != -1 {
		t.Fatalf("depth cap wrong: %v %v", capped.At(3, 0), capped.At(4, 0))
	}
}

func TestBFSValidation(t *testing.T) {
	g := pathGraph(t, 4)
	if _, err := MultiSourceBFS(plainAgg{g}, 4, []int32{7}, 2); err == nil {
		t.Fatalf("out-of-range source accepted")
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	const n = 32
	g := cycleGraph(t, n)
	trans := TransitionMatrix(g)
	scores, err := PageRank(plainAgg{trans}, n, 2, 50, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	// A regular graph's PageRank is uniform; mass stays 1.
	for c := 0; c < 2; c++ {
		if mass := ColumnMass(scores, c); math.Abs(mass-1) > 1e-3 {
			t.Fatalf("column %d mass = %v", c, mass)
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(float64(scores.At(i, 0))-1.0/n) > 1e-4 {
			t.Fatalf("cycle PageRank not uniform at %d: %v", i, scores.At(i, 0))
		}
	}
}

func TestPageRankFavoursHub(t *testing.T) {
	// A star: hub 0 connected to all others (undirected). The hub must
	// out-rank every leaf.
	const n = 16
	sets := make([][]int32, n)
	for i := 1; i < n; i++ {
		sets[0] = append(sets[0], int32(i))
		sets[i] = []int32{0}
	}
	g, err := sparse.FromRows(n, n, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := PageRank(plainAgg{TransitionMatrix(g)}, n, 1, 60, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	hub := scores.At(0, 0)
	for i := 1; i < n; i++ {
		if scores.At(i, 0) >= hub {
			t.Fatalf("leaf %d (%v) >= hub (%v)", i, scores.At(i, 0), hub)
		}
	}
}

func TestPageRankValidation(t *testing.T) {
	g := cycleGraph(t, 4)
	agg := plainAgg{TransitionMatrix(g)}
	if _, err := PageRank(agg, 4, 1, 5, 1.5); err == nil {
		t.Fatalf("damping > 1 accepted")
	}
	if _, err := PageRank(agg, 4, 0, 5, 0.85); err == nil {
		t.Fatalf("0 chains accepted")
	}
}

func TestTransitionMatrixStochastic(t *testing.T) {
	g := pathGraph(t, 6)
	trans := TransitionMatrix(g)
	// Column sums of the transition matrix are 1 (no dangling vertices
	// in a path graph).
	colSum := make([]float64, 6)
	for i := 0; i < 6; i++ {
		cols, vals := trans.RowCols(i), trans.RowVals(i)
		for j := range cols {
			colSum[cols[j]] += float64(vals[j])
		}
	}
	for c, s := range colSum {
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("column %d sum = %v", c, s)
		}
	}
}
