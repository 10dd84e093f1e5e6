// Package lsh implements the locality-sensitive hashing stage of the
// paper's preprocessing (§3.2): MinHash signatures over the column-index
// set of each sparse row, banded bucketing, and candidate-pair generation.
//
// The paper uses LSH as a black box with two parameters: siglen (signature
// length; longer = more accurate) and bsize (band size; smaller = more
// candidate pairs), citing ch. 3 of Mining of Massive Datasets. The total
// cost is siglen·nnz for signatures, (siglen/bsize)·N for banding, and
// d_max·E for scoring the E candidate pairs — matching the complexity
// stated in the paper. Signature computation is embarrassingly parallel
// (the paper uses OpenMP; we use goroutines).
package lsh

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pairheap"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Params configures the LSH stage.
type Params struct {
	// SigLen is the MinHash signature length (paper default: 128).
	SigLen int
	// BandSize is the number of signature entries per band (paper
	// default: 2). SigLen must be divisible by BandSize.
	BandSize int
	// Seed makes the hash family deterministic.
	Seed uint64
	// MaxBucket caps the number of rows in one band bucket that are
	// expanded into pairs; buckets larger than this contribute only
	// MaxBucket consecutive-pair links instead of all O(B²) pairs. This
	// bounds E on pathological inputs (e.g. many identical rows).
	// 0 means DefaultMaxBucket.
	MaxBucket int
	// MinSim drops candidate pairs whose exact Jaccard similarity is
	// below this threshold (0 keeps all pairs found).
	MinSim float64
	// Workers bounds signature-computation parallelism; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// OPH switches signature computation to one-permutation hashing
	// (cost nnz instead of SigLen·nnz; see ComputeSignaturesOPH) — an
	// extension over the paper's plain MinHash.
	OPH bool
}

// DefaultMaxBucket bounds per-bucket pair expansion.
const DefaultMaxBucket = 64

// DefaultParams returns the configuration the paper uses in all its
// experiments: siglen=128, bsize=2.
func DefaultParams() Params {
	return Params{SigLen: 128, BandSize: 2, Seed: 0x5eed1e55, MaxBucket: DefaultMaxBucket}
}

func (p Params) validate() error {
	if p.SigLen <= 0 {
		return fmt.Errorf("lsh: SigLen must be positive, got %d", p.SigLen)
	}
	if p.BandSize <= 0 || p.SigLen%p.BandSize != 0 {
		return fmt.Errorf("lsh: BandSize %d must be positive and divide SigLen %d", p.BandSize, p.SigLen)
	}
	return nil
}

// Signatures holds the MinHash signature matrix: row i's signature is
// Sig[i*SigLen : (i+1)*SigLen]. Rows with no nonzeros have all-max
// signatures and never collide with non-empty rows.
type Signatures struct {
	SigLen int
	Rows   int
	Sig    []uint32
}

// Row returns row i's signature.
func (s *Signatures) Row(i int) []uint32 { return s.Sig[i*s.SigLen : (i+1)*s.SigLen] }

// EstimateJaccard returns the fraction of matching signature positions
// between rows i and j — an unbiased estimator of their Jaccard
// similarity.
func (s *Signatures) EstimateJaccard(i, j int) float64 {
	a, b := s.Row(i), s.Row(j)
	n := 0
	for k := range a {
		if a[k] == b[k] {
			n++
		}
	}
	return float64(n) / float64(s.SigLen)
}

// StageTimings is the wall-clock breakdown of the LSH stage, matching
// the three terms of the paper's preprocessing cost model: siglen·nnz
// signature computation, (siglen/bsize)·N banding (including candidate
// deduplication), and d_max·E exact scoring (including the final
// deterministic pair ordering).
type StageTimings struct {
	Signatures time.Duration
	Banding    time.Duration
	Scoring    time.Duration
}

// Total sums the stage durations.
func (t StageTimings) Total() time.Duration { return t.Signatures + t.Banding + t.Scoring }

// signatureOps counts signature-matrix computations process-wide. The
// plan cache's tests use it to prove a cache hit performs no signature
// work; it has no other role.
var signatureOps atomic.Int64

// SignatureOps returns the number of signature-matrix computations
// (MinHash or OPH) performed by this process so far.
func SignatureOps() int64 { return signatureOps.Load() }

// splitmix64 advances and hashes a 64-bit state; used to derive the hash
// family deterministically from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashFamily holds per-function multiply-shift constants. h_k(c) =
// (a_k*c + b_k) mixed to 32 bits; distinct odd multipliers give a family
// of near-universal hashes over column indices.
type hashFamily struct {
	a, b []uint64
}

func newHashFamily(n int, seed uint64) hashFamily {
	f := hashFamily{a: make([]uint64, n), b: make([]uint64, n)}
	s := seed
	for k := 0; k < n; k++ {
		s = splitmix64(s)
		f.a[k] = s | 1 // odd multiplier
		s = splitmix64(s)
		f.b[k] = s
	}
	return f
}

func (f hashFamily) hash(k int, c uint32) uint32 {
	x := f.a[k]*uint64(c) + f.b[k]
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return uint32(x)
}

// sigRowBlock is the signature stage's unit of work (rows per claim):
// coarse enough that the per-unit cancellation checkpoint and fault
// hook are free, fine enough that cancellation lands promptly.
const sigRowBlock = 512

// ComputeSignatures builds MinHash signatures for every row of m in
// parallel.
func ComputeSignatures(m *sparse.CSR, p Params) (*Signatures, error) {
	return ComputeSignaturesCtx(context.Background(), m, p)
}

// ComputeSignaturesCtx is ComputeSignatures with cooperative
// cancellation between row blocks; a worker panic surfaces as a
// *par.PanicError instead of crashing the process.
func ComputeSignaturesCtx(ctx context.Context, m *sparse.CSR, p Params) (*Signatures, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	signatureOps.Add(1)
	fam := newHashFamily(p.SigLen, p.Seed)
	sigs := &Signatures{
		SigLen: p.SigLen,
		Rows:   m.Rows,
		Sig:    make([]uint32, m.Rows*p.SigLen),
	}
	err := par.ForChunksCtx(ctx, m.Rows, sigRowBlock, p.Workers, func(lo, hi int) error {
		if err := faultinject.Fire("lsh.signatures"); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			row := sigs.Row(i)
			cols := m.RowCols(i)
			for k := 0; k < p.SigLen; k++ {
				min := uint32(math.MaxUint32)
				for _, c := range cols {
					if h := fam.hash(k, uint32(c)); h < min {
						min = h
					}
				}
				row[k] = min
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sigs, nil
}

// CandidatePairs runs the full LSH stage on m: signatures (MinHash, or
// OPH when p.OPH is set), banded bucketing, per-bucket pair expansion,
// exact Jaccard scoring, and MinSim filtering. The result is
// deduplicated and deterministic for a fixed Params.
func CandidatePairs(m *sparse.CSR, p Params) ([]pairheap.Pair, error) {
	pairs, _, err := CandidatePairsTimed(m, p)
	return pairs, err
}

// CandidatePairsCtx is CandidatePairs with cooperative cancellation and
// panic isolation across every internal stage.
func CandidatePairsCtx(ctx context.Context, m *sparse.CSR, p Params) ([]pairheap.Pair, error) {
	pairs, _, err := CandidatePairsTimedCtx(ctx, m, p)
	return pairs, err
}

// CandidatePairsTimed is CandidatePairs reporting the per-stage
// wall-clock breakdown (signatures / banding / scoring).
func CandidatePairsTimed(m *sparse.CSR, p Params) ([]pairheap.Pair, StageTimings, error) {
	return CandidatePairsTimedCtx(context.Background(), m, p)
}

// CandidatePairsTimedCtx is CandidatePairsTimed with cooperative
// cancellation: signature computation, banding, pair merging, and
// scoring all observe ctx between work units, and a worker panic in any
// of them surfaces as a *par.PanicError from this call instead of
// crashing the process.
func CandidatePairsTimedCtx(ctx context.Context, m *sparse.CSR, p Params) ([]pairheap.Pair, StageTimings, error) {
	var st StageTimings
	t0 := time.Now()
	var sigs *Signatures
	var err error
	if p.OPH {
		sigs, err = ComputeSignaturesOPHCtx(ctx, m, p)
	} else {
		sigs, err = ComputeSignaturesCtx(ctx, m, p)
	}
	if err != nil {
		return nil, st, err
	}
	st.Signatures = time.Since(t0)
	pairs, err := pairsFromSignatures(ctx, m, sigs, p, &st)
	return pairs, st, err
}

// PairsFromSignatures performs banding and scoring on precomputed
// signatures. Exposed separately so parameter sweeps can reuse
// signatures. Like signature computation, banding and scoring are
// embarrassingly parallel (per band / per pair) and run across Workers
// goroutines; the result is deduplicated and deterministic for a fixed
// Params regardless of worker count.
func PairsFromSignatures(m *sparse.CSR, sigs *Signatures, p Params) ([]pairheap.Pair, error) {
	return pairsFromSignatures(context.Background(), m, sigs, p, nil)
}

// PairsFromSignaturesCtx is PairsFromSignatures with cooperative
// cancellation and panic isolation.
func PairsFromSignaturesCtx(ctx context.Context, m *sparse.CSR, sigs *Signatures, p Params) ([]pairheap.Pair, error) {
	return pairsFromSignatures(ctx, m, sigs, p, nil)
}

// pairsFromSignatures is the banding+scoring engine; st (optional)
// receives the Banding/Scoring wall-clock split.
//
// The candidate set is deduplicated without any shared map: every
// worker keeps its candidate keys as a sorted unique slice (each band's
// keys come out of bandBuckets already sorted and unique, and are merged
// into the accumulator), and the workers' slices meet in a k-way merge.
// The union of per-band key sets is independent of how bands were dealt
// to workers, so the merged sequence — and everything downstream — is
// identical for every worker count.
func pairsFromSignatures(ctx context.Context, m *sparse.CSR, sigs *Signatures, p Params, st *StageTimings) ([]pairheap.Pair, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	maxBucket := p.MaxBucket
	if maxBucket <= 0 {
		maxBucket = DefaultMaxBucket
	}
	nbands := p.SigLen / p.BandSize
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nbands {
		workers = nbands
	}
	if workers < 1 {
		workers = 1
	}
	tBand := time.Now()

	// Phase 1 (parallel over bands): bucket rows per band and emit each
	// band's candidate keys; per-worker results stay sorted and unique.
	// Bands are dealt to workers in stride-w order (deterministic, so
	// the per-worker key sets — and their union — never depend on
	// scheduling); each worker checks ctx between bands.
	workerKeys := make([][]uint64, workers)
	err := par.DoCtx(ctx, workers, func(w int) error {
		var acc, band, mergeBuf []uint64
		var bk bandBuckets
		for b := w; b < nbands; b += workers {
			if err := par.CtxErr(ctx); err != nil {
				return err
			}
			if err := faultinject.Fire("lsh.banding"); err != nil {
				return err
			}
			bk.fill(m, sigs, b*p.BandSize, p.BandSize)
			band = bk.appendKeys(band[:0], maxBucket)
			acc, mergeBuf = mergeSortedUnique(mergeBuf[:0], acc, band), acc
		}
		workerKeys[w] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	keys, err := mergeWorkerKeys(ctx, workerKeys)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.Banding = time.Since(tBand)
	}
	tScore := time.Now()

	// Phase 2 (parallel over candidates): exact Jaccard scoring — the
	// d_max·E term of the paper's cost model. Results land at their
	// key's index, so scoring order cannot reorder the output.
	const scoreChunk = 4 << 10
	pairs := make([]pairheap.Pair, len(keys))
	keep := make([]bool, len(keys))
	err = par.ForChunksCtx(ctx, len(keys), scoreChunk, workers, func(lo, hi int) error {
		if err := faultinject.Fire("lsh.scoring"); err != nil {
			return err
		}
		for idx := lo; idx < hi; idx++ {
			i := int32(keys[idx] >> 32)
			j := int32(keys[idx] & 0xffffffff)
			sim := sparse.RowJaccard(m, int(i), int(j))
			if sim >= p.MinSim && sim > 0 {
				pairs[idx] = pairheap.Pair{Sim: sim, I: i, J: j}
				keep[idx] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := pairs[:0]
	for idx := range pairs {
		if keep[idx] {
			out = append(out, pairs[idx])
		}
	}
	sortPairs(out, workers)
	if st != nil {
		st.Scoring = time.Since(tScore)
	}
	return out, nil
}

// bandBuckets groups the rows of one band by band hash. It is one
// band worker's scratch, reused band after band, so steady-state
// banding allocates nothing. Buckets are numbered in order of their
// smallest row, and order lists the rows bucket by bucket, each bucket
// ascending (a stable counting sort of rows by bucket id).
type bandBuckets struct {
	id       map[uint64]int32 // band hash -> bucket id
	bucketOf []int32          // row -> bucket id, -1 for an empty row
	start    []int32          // bucket id -> offset of its rows in order
	order    []int32          // rows grouped by bucket, ascending within
	posOf    []int32          // row -> its index in order
}

// fill buckets every non-empty row of m by the hash of its signature
// entries [lo, lo+n). Empty rows are skipped: their all-max signatures
// would otherwise all collide.
func (bk *bandBuckets) fill(m *sparse.CSR, sigs *Signatures, lo, n int) {
	rows := m.Rows
	if bk.id == nil {
		bk.id = make(map[uint64]int32)
		bk.bucketOf = make([]int32, rows)
		bk.start = make([]int32, rows+1)
		bk.order = make([]int32, rows)
		bk.posOf = make([]int32, rows)
	}
	clear(bk.id)
	nb := int32(0)
	for i := 0; i < rows; i++ {
		if m.RowLen(i) == 0 {
			bk.bucketOf[i] = -1
			continue
		}
		h := uint64(0xcbf29ce484222325)
		for _, v := range sigs.Row(i)[lo : lo+n] {
			h ^= uint64(v)
			h *= 0x100000001b3
		}
		id, ok := bk.id[h]
		if !ok {
			id = nb
			bk.id[h] = id
			nb++
		}
		bk.bucketOf[i] = id
	}
	start := bk.start[:nb+1]
	clear(start)
	for _, id := range bk.bucketOf {
		if id >= 0 {
			start[id+1]++
		}
	}
	for b := int32(1); b <= nb; b++ {
		start[b] += start[b-1]
	}
	// Place rows in ascending order; start[id] advances to the end of
	// bucket id, so afterwards start[id] is where bucket id+1 begins.
	for i, id := range bk.bucketOf {
		if id >= 0 {
			bk.order[start[id]] = int32(i)
			bk.posOf[i] = start[id]
			start[id]++
		}
	}
	copy(start[1:], start[:nb])
	start[0] = 0
}

// appendKeys appends the band's candidate keys (i<<32 | j with i < j)
// to dst in ascending order. Each row i pairs with every later member j
// of its bucket, or, in a bucket larger than maxBucket, only with the
// next one: chaining consecutive members keeps similar rows connected
// transitively through the clustering while avoiding O(B²) pair
// blowup. Rows are walked in ascending order and each row sits in one
// bucket, so the keys come out sorted and unique.
func (bk *bandBuckets) appendKeys(dst []uint64, maxBucket int) []uint64 {
	for i, id := range bk.bucketOf {
		if id < 0 {
			continue
		}
		lo, hi := bk.start[id], bk.start[id+1]
		p := bk.posOf[i] + 1
		if hi-lo > int32(maxBucket) && p < hi {
			hi = p + 1
		}
		for _, j := range bk.order[p:hi] {
			dst = append(dst, uint64(uint32(i))<<32|uint64(uint32(j)))
		}
	}
	return dst
}

// mergeSortedUnique merges two sorted unique slices into dst (reset by
// the caller), dropping cross-slice duplicates.
func mergeSortedUnique(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// mergeWorkerKeys k-way merges the workers' sorted unique key slices by
// parallel pairwise rounds; the result is the sorted union. Each round
// observes ctx and the merge fault site before doing work.
func mergeWorkerKeys(ctx context.Context, parts [][]uint64) ([]uint64, error) {
	for len(parts) > 1 {
		npairs := len(parts) / 2
		merged := make([][]uint64, (len(parts)+1)/2)
		err := par.ForUnitsCtx(ctx, npairs, npairs, func(u int) error {
			if err := faultinject.Fire("lsh.pairmerge"); err != nil {
				return err
			}
			i := 2 * u
			merged[u] = mergeSortedUnique(
				make([]uint64, 0, len(parts[i])+len(parts[i+1])), parts[i], parts[i+1])
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(parts)%2 == 1 {
			merged[len(merged)-1] = parts[len(parts)-1]
		}
		parts = merged
	}
	if len(parts) == 0 {
		return nil, nil
	}
	return parts[0], nil
}

// sortPairs sorts ps into the canonical candidate-pair order,
// pairheap.Compare (the order Alg 3's queue pops in), with a parallel
// merge sort: equal chunks are slices.SortFunc-ed concurrently, then
// merged in parallel pairwise rounds. The comparator is a total order
// because (I, J) keys are unique, so the result is identical for every
// worker count (and to a plain serial sort).
func sortPairs(ps []pairheap.Pair, workers int) {
	const minParallelSort = 1 << 14
	if workers > len(ps)/minParallelSort {
		workers = len(ps) / minParallelSort
	}
	if workers <= 1 {
		slices.SortFunc(ps, pairheap.Compare)
		return
	}
	chunk := (len(ps) + workers - 1) / workers
	bounds := make([][2]int, 0, workers)
	var wg sync.WaitGroup
	for lo := 0; lo < len(ps); lo += chunk {
		hi := lo + chunk
		if hi > len(ps) {
			hi = len(ps)
		}
		bounds = append(bounds, [2]int{lo, hi})
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			slices.SortFunc(ps[lo:hi], pairheap.Compare)
		}(lo, hi)
	}
	wg.Wait()
	scratch := make([]pairheap.Pair, len(ps))
	src, dst := ps, scratch
	for len(bounds) > 1 {
		next := make([][2]int, 0, (len(bounds)+1)/2)
		var mwg sync.WaitGroup
		for i := 0; i+1 < len(bounds); i += 2 {
			a, b := bounds[i], bounds[i+1]
			next = append(next, [2]int{a[0], b[1]})
			mwg.Add(1)
			go func(a, b [2]int) {
				defer mwg.Done()
				mergePairs(dst[a[0]:b[1]], src[a[0]:a[1]], src[b[0]:b[1]])
			}(a, b)
		}
		if len(bounds)%2 == 1 {
			last := bounds[len(bounds)-1]
			copy(dst[last[0]:last[1]], src[last[0]:last[1]])
			next = append(next, last)
		}
		mwg.Wait()
		bounds = next
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
}

// mergePairs merges two pairheap.Compare-sorted runs into dst
// (len(dst) == len(a)+len(b)).
func mergePairs(dst, a, b []pairheap.Pair) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if pairheap.Compare(a[0], b[0]) <= 0 {
			dst[k] = a[0]
			a = a[1:]
		} else {
			dst[k] = b[0]
			b = b[1:]
		}
		k++
	}
	copy(dst[k:], a)
	copy(dst[k+len(a):], b)
}
