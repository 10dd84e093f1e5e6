package lsh

import (
	"context"
	"math"

	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/sparse"
)

// One-permutation hashing (Li, Owen & Zhang, NIPS'12): instead of
// evaluating SigLen independent hash functions per element (cost
// SigLen·nnz), hash each element once, partition the hash space into
// SigLen bins, and take the minimum per bin — cost nnz, a SigLen× cheaper
// signature stage with comparable banding behaviour. Empty bins are
// filled by "densification" (borrowing the nearest non-empty bin's value,
// rotating right), which keeps the collision probability unbiased for
// sparse rows.
//
// This is an extension to the paper's preprocessing (which uses plain
// MinHash); BenchmarkAblationScheme quantifies the trade.

// ComputeSignaturesOPH builds a signature matrix compatible with
// Signatures (same banding code) using one-permutation hashing.
func ComputeSignaturesOPH(m *sparse.CSR, p Params) (*Signatures, error) {
	return ComputeSignaturesOPHCtx(context.Background(), m, p)
}

// ComputeSignaturesOPHCtx is ComputeSignaturesOPH with cooperative
// cancellation between row blocks; a worker panic surfaces as a
// *par.PanicError instead of crashing the process.
func ComputeSignaturesOPHCtx(ctx context.Context, m *sparse.CSR, p Params) (*Signatures, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	signatureOps.Add(1)
	fam := newHashFamily(1, p.Seed)
	sigs := &Signatures{
		SigLen: p.SigLen,
		Rows:   m.Rows,
		Sig:    make([]uint32, m.Rows*p.SigLen),
	}
	binWidth := uint64(math.MaxUint32)/uint64(p.SigLen) + 1
	err := par.ForChunksCtx(ctx, m.Rows, sigRowBlock, p.Workers, func(lo, hi int) error {
		if err := faultinject.Fire("lsh.signatures"); err != nil {
			return err
		}
		src := make([]uint32, p.SigLen) // densify scratch, one per block
		for i := lo; i < hi; i++ {
			row := sigs.Row(i)
			for k := range row {
				row[k] = math.MaxUint32
			}
			for _, c := range m.RowCols(i) {
				h := fam.hash(0, uint32(c))
				bin := int(uint64(h) / binWidth)
				// Store the within-bin offset so bins are comparable.
				v := h - uint32(uint64(bin)*binWidth)
				if v < row[bin] {
					row[bin] = v
				}
			}
			densify(row, src)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sigs, nil
}

// densify fills each empty bin (MaxUint32) from the nearest non-empty
// bin to its right (circularly), mixing in the borrow distance — the
// densified one-permutation hashing scheme: two rows that agree on the
// donor bin then also agree on every bin borrowed from it at equal
// distance, keeping the per-bin collision probability close to the
// Jaccard similarity. A row with no nonzeros keeps all-max signatures
// (it never collides, matching ComputeSignatures). Bins are few
// (SigLen), so the circular scan is cheap. src is caller scratch of
// len(row) that receives a copy of the undensified row.
func densify(row, src []uint32) {
	n := len(row)
	anyFilled := false
	for _, v := range row {
		if v != math.MaxUint32 {
			anyFilled = true
			break
		}
	}
	if !anyFilled {
		return
	}
	copy(src, row)
	for k := 0; k < n; k++ {
		if src[k] != math.MaxUint32 {
			continue
		}
		for d := 1; d <= n; d++ {
			donor := src[(k+d)%n]
			if donor != math.MaxUint32 {
				row[k] = borrowTag(donor, uint32(d))
				break
			}
		}
	}
}

// borrowTag mixes the borrow distance into a donated value so distinct
// borrow chains do not spuriously collide.
func borrowTag(v, dist uint32) uint32 {
	x := uint64(v)*0x9e3779b1 + uint64(dist)*0x85ebca77
	x ^= x >> 16
	t := uint32(x)
	if t == math.MaxUint32 {
		t--
	}
	return t
}
