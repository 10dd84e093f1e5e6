package kernels

// Per-row inner loops shared by the row-wise, ASpT and HYB kernels and
// by the live overlay. They are register-blocked over nonzeros, not over K:
// SpMM sweeps the output row once per four nonzeros instead of once per
// nonzero, and SDDMM computes four independent dot products per sweep
// of the left operand's row. Each X row is resliced to the output
// row's length so the compiler drops the bounds checks in the k loops.
//
// Blocking is bit-identical to the scalar loops. For every output
// element SpMM still evaluates y = (((y + v0·x0) + v1·x1) + v2·x2) +
// v3·x3 left to right in nonzero order, each product and each sum
// rounded to float32 exactly as the one-nonzero-at-a-time loop rounds
// them; SDDMM's four dot products share loads but not sums, each
// accumulating its own k order from zero. Nothing is reassociated, so
// no caller sees a different bit.

import "repro/internal/dense"

// SpMMRow overwrites y with Σ_j vals[j]·X[cols[j]], summed in nonzero
// order: one output row of Y = S·X, given that row's columns and
// values. len(y) must equal x.Cols.
func SpMMRow(y []float32, cols []int32, vals []float32, x *dense.Matrix) {
	clear(y)
	axpyRow(y, cols, vals, x)
}

// axpyRow adds Σ_j vals[j]·X[cols[j]] into y in nonzero order.
func axpyRow(y []float32, cols []int32, vals []float32, x *dense.Matrix) {
	vals = vals[:len(cols)]
	j := 0
	for ; j+4 <= len(cols); j += 4 {
		axpy4(y, vals[j], vals[j+1], vals[j+2], vals[j+3],
			x.Row(int(cols[j])), x.Row(int(cols[j+1])), x.Row(int(cols[j+2])), x.Row(int(cols[j+3])))
	}
	for ; j < len(cols); j++ {
		axpy1(y, vals[j], x.Row(int(cols[j])))
	}
}

// axpy4 sets y[k] = y[k] + v0·x0[k] + v1·x1[k] + v2·x2[k] + v3·x3[k].
func axpy4(y []float32, v0, v1, v2, v3 float32, x0, x1, x2, x3 []float32) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for k := range y {
		y[k] = y[k] + v0*x0[k] + v1*x1[k] + v2*x2[k] + v3*x3[k]
	}
}

// axpy1 sets y[k] += v·x0[k].
func axpy1(y []float32, v float32, x0 []float32) {
	x0 = x0[:len(y)]
	for k := range y {
		y[k] += v * x0[k]
	}
}

// SDDMMRow writes out[j] = vals[j]·(y·X[cols[j]]) for one row of
// O = S ⊙ (Y·Xᵀ): y is the row of Y, cols and vals the row of S, out
// that row's output values. Each dot product runs k = 0..K-1 in order.
func SDDMMRow(out, y []float32, cols []int32, vals []float32, x *dense.Matrix) {
	vals, out = vals[:len(cols)], out[:len(cols)]
	j := 0
	for ; j+4 <= len(cols); j += 4 {
		d0, d1, d2, d3 := dot4(y, x.Row(int(cols[j])), x.Row(int(cols[j+1])), x.Row(int(cols[j+2])), x.Row(int(cols[j+3])))
		out[j], out[j+1], out[j+2], out[j+3] = d0*vals[j], d1*vals[j+1], d2*vals[j+2], d3*vals[j+3]
	}
	for ; j < len(cols); j++ {
		out[j] = dot1(y, x.Row(int(cols[j]))) * vals[j]
	}
}

// dot4 returns the four dot products y·x0 … y·x3, each summed over k
// in order from zero.
func dot4(y, x0, x1, x2, x3 []float32) (d0, d1, d2, d3 float32) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for k, yk := range y {
		d0 += yk * x0[k]
		d1 += yk * x1[k]
		d2 += yk * x2[k]
		d3 += yk * x3[k]
	}
	return
}

// dot1 returns y·x0 summed over k in order from zero.
func dot1(y, x0 []float32) (d float32) {
	x0 = x0[:len(y)]
	for k, yk := range y {
		d += yk * x0[k]
	}
	return
}
