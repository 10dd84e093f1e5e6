// Package repro is a Go reproduction of "A Novel Data Transformation and
// Execution Strategy for Accelerating Sparse Matrix Multiplication on
// GPUs" (Jiang, Hong, Agrawal — PPoPP 2020): LSH-accelerated
// clustering-based row reordering that improves data locality for SpMM
// (sparse × dense) and SDDMM (sampled dense-dense) on top of Adaptive
// Sparse Tiling (ASpT).
//
// The package exposes:
//
//   - Sparse/dense matrix types and Matrix Market I/O.
//   - The preprocessing pipeline (Preprocess / NewPipeline): two rounds of
//     LSH + hierarchical-clustering row reordering with the paper's §4
//     skip heuristics, followed by ASpT tiling.
//   - Native parallel SpMM/SDDMM kernels executing either raw CSR
//     matrices or preprocessed pipelines (results are always returned in
//     the original row order; the reordering is an internal execution
//     strategy, exactly as in the paper). Every execution layer —
//     Pipeline, OnlinePipeline, ShardedPipeline, LivePipeline — serves
//     through the same three methods, SpMMIntoCtx, SDDMMIntoCtx and
//     SpMMBatchIntoCtx, writing caller-provided outputs with
//     cancellation and zero steady-state allocations; SpMM and SDDMM
//     are the allocating conveniences.
//   - The paper's §4 online trial-and-error strategy (OnlinePipeline):
//     the reordered and plain plans are each timed once, on a fixed
//     operand, as part of the build; the winner serves every call, and
//     no serving call ever runs the trial.
//   - A P100-parameterised GPU memory-hierarchy simulator (Estimate*)
//     that reports the data movement and roofline time of each execution
//     strategy — the measurement substrate for the paper's evaluation
//     (see DESIGN.md for the substitution rationale).
//   - Synthetic matrix generators mirroring the structural regimes of the
//     SuiteSparse / Network Repository corpus.
//
// Quick start:
//
//	m, _ := repro.GenerateScrambledClusters(16384, 16384, 256, 42)
//	p, _ := repro.NewPipeline(m, repro.DefaultConfig())
//	x := repro.NewRandomDense(m.Cols, 512, 1)
//	y, _ := p.SpMM(x) // same result as plain SpMM, better locality
//
// See the examples/ directory for end-to-end applications (GCN training,
// ALS collaborative filtering, graph analytics, a block eigensolver).
//
// Limits: matrices use int32 indices (up to ~2·10⁹ rows/columns and
// nonzeros) and float32 values, matching the paper's GPU kernels.
package repro
