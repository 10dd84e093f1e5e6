package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/internal/synth"
)

// family is one structural class of served matrix. Every tenant of a
// family serves an identical matrix, so each tenant's own reorder
// trial is an independent decision on the same input.
type family struct {
	name string
	m    *repro.Matrix
}

// loadKind is how requests are issued.
type loadKind int

const (
	closedLoop loadKind = iota // clients wait for each reply
	openLoop                   // requests are due on a Poisson schedule
)

// workload is one named traffic mix over generated inputs. Why each
// exists is recorded beside its name in BENCHMARK.json.
type workload struct {
	name string

	gen func(seed int64, short bool) ([]family, error)
	// tenantsPer is how many identical tenants serve each family.
	tenantsPer int
	scfg       func(short bool) repro.ServerConfig

	load     loadKind
	clients  int     // closed loop: concurrent clients
	rate     float64 // open loop: requests per second
	inFlight int     // open loop: requests in flight at most
	ks       []int   // dense-operand widths, chosen per request
	// sddmmEvery makes every n-th request an SDDMM (0: none).
	sddmmEvery int
	// checkEvery output-checks every n-th request.
	checkEvery int
	// mutate runs the structural and value mutator beside the reads.
	mutate bool
}

var workloads = []workload{
	{
		name: "tenants-steady",
		gen:  genTenantsSteady,
		// Three identical tenants per family: each runs its own trial.
		tenantsPer: 3,
		scfg: func(short bool) repro.ServerConfig {
			// Only the R-MAT family crosses ShardNNZ.
			shard := 120_000
			if short {
				shard = 30_000
			}
			return repro.ServerConfig{ShardNNZ: shard}
		},
		load:       closedLoop,
		clients:    2,
		ks:         []int{32},
		sddmmEvery: 8,
		checkEvery: 16,
	},
	{
		name:       "small-k-burst",
		gen:        genSmallKBurst,
		tenantsPer: 1,
		scfg: func(bool) repro.ServerConfig {
			return repro.ServerConfig{CoalesceWindow: 200 * time.Microsecond, VerifyFraction: 1}
		},
		load:       openLoop,
		rate:       200,
		inFlight:   32,
		ks:         []int{1, 2, 4},
		checkEvery: 8,
	},
	{
		name:       "live-mutate",
		gen:        genLiveMutate,
		tenantsPer: 1,
		scfg:       func(bool) repro.ServerConfig { return repro.ServerConfig{} },
		load:       openLoop,
		rate:       180,
		inFlight:   16,
		ks:         []int{16},
		checkEvery: 4,
		mutate:     true,
	},
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes. With K=32 a dense operand row is 128 B, so the banded
// family's operand (12288 columns, 1.5 MiB) fits in a 2 MiB per-core
// L2, the R-MAT family's (16384 columns, 2 MiB) fills it and the
// scrambled family's (24576 columns, 3 MiB) exceeds it. Larger
// operands spill into the L3 the host shares with other tenants, and
// their throughput then follows the neighbours' memory traffic.
func genTenantsSteady(seed int64, short bool) ([]family, error) {
	scRows, scCols, rmatScale, bdRows, bdCols := 4096, 24576, 14, 6144, 12288
	if short {
		scRows, scCols, rmatScale, bdRows, bdCols = 1024, 4096, 12, 1024, 1024
	}
	sc, err := repro.GenerateScrambledClusters(scRows, scCols, scRows/32, seed)
	if err != nil {
		return nil, err
	}
	rm, err := repro.GenerateRMAT(rmatScale, 16, seed+1)
	if err != nil {
		return nil, err
	}
	bd, err := synth.Banded(bdRows, bdCols, 64, 16, seed+2)
	if err != nil {
		return nil, err
	}
	return []family{{"scrambled", sc}, {"rmat", rm}, {"banded", bd}}, nil
}

func genSmallKBurst(seed int64, short bool) ([]family, error) {
	rows := 8192
	if short {
		rows = 1024
	}
	sc, err := repro.GenerateScrambledClusters(rows, rows, rows/32, seed)
	if err != nil {
		return nil, err
	}
	return []family{{"scrambled", sc}}, nil
}

func genLiveMutate(seed int64, short bool) ([]family, error) {
	rows, cols := 4096, 8192
	if short {
		rows, cols = 1024, 2048
	}
	sc, err := repro.GenerateScrambledClusters(rows, cols, rows/32, seed)
	if err != nil {
		return nil, err
	}
	return []family{{"scrambled", sc}}, nil
}

// operands holds the pre-generated dense inputs for one family: for
// each K, a few X (cols×K) operands for SpMM/SDDMM and Y (rows×K)
// operands for SDDMM. Requests cycle through them.
type operands struct {
	x map[int][]*repro.Dense
	y map[int][]*repro.Dense
}

const operandsPerK = 4

func genOperands(m *repro.Matrix, ks []int, sddmm bool, seed int64) operands {
	ops := operands{x: map[int][]*repro.Dense{}, y: map[int][]*repro.Dense{}}
	s := seed
	for _, k := range ks {
		for i := 0; i < operandsPerK; i++ {
			s++
			ops.x[k] = append(ops.x[k], repro.NewRandomDense(m.Cols, k, s))
			if sddmm {
				s++
				ops.y[k] = append(ops.y[k], repro.NewRandomDense(m.Rows, k, s))
			}
		}
	}
	return ops
}

// mutationPlan is the mutator's pre-generated, seed-determined
// sequence: structural batches alternate ReplaceRows and AppendRows,
// value batches rewrite existing nonzeros in place.
type mutationPlan struct {
	structural []repro.Mutation
	values     [][]repro.ValueUpdate
}

const (
	structuralEvery = time.Second
	valueEvery      = 200 * time.Millisecond
	rowsPerBatch    = 16
	valuesPerBatch  = 64
)

// genMutations builds enough batches for dur of mutation at the fixed
// rates. Replaced rows index the original rows (appends only grow the
// matrix), and value updates address nonzeros that exist in the
// original matrix and are never replaced, so every batch is valid
// whenever it lands.
func genMutations(m *repro.Matrix, dur time.Duration, seed int64) (mutationPlan, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6d757461))
	nStruct := int(dur/structuralEvery) + 2
	nVal := int(dur/valueEvery) + 2
	// Rows [0, rows/2) may be replaced; value updates use the rest.
	half := m.Rows / 2
	if half < rowsPerBatch {
		return mutationPlan{}, fmt.Errorf("matrix too small to mutate: %d rows", m.Rows)
	}
	rowDef := func() repro.RowDef {
		n := 8 + rng.Intn(24)
		seen := map[int32]bool{}
		var d repro.RowDef
		for len(d.Cols) < n {
			c := int32(rng.Intn(m.Cols))
			if seen[c] {
				continue
			}
			seen[c] = true
			d.Cols = append(d.Cols, c)
		}
		sort.Slice(d.Cols, func(i, j int) bool { return d.Cols[i] < d.Cols[j] })
		for range d.Cols {
			d.Vals = append(d.Vals, 0.1+0.9*rng.Float32())
		}
		return d
	}
	var mp mutationPlan
	for i := 0; i < nStruct; i++ {
		var mu repro.Mutation
		if i%2 == 0 {
			for _, r := range rng.Perm(half)[:rowsPerBatch] {
				mu.ReplaceRows = append(mu.ReplaceRows, repro.RowUpdate{Row: r, Def: rowDef()})
			}
		} else {
			for j := 0; j < rowsPerBatch/2; j++ {
				mu.AppendRows = append(mu.AppendRows, rowDef())
			}
		}
		mp.structural = append(mp.structural, mu)
	}
	for i := 0; i < nVal; i++ {
		var ups []repro.ValueUpdate
		for len(ups) < valuesPerBatch {
			r := half + rng.Intn(m.Rows-half)
			cols := m.RowCols(r)
			if len(cols) == 0 {
				continue
			}
			ups = append(ups, repro.ValueUpdate{Row: r, Col: int(cols[rng.Intn(len(cols))]), Val: 0.1 + 0.9*rng.Float32()})
		}
		mp.values = append(mp.values, ups)
	}
	return mp, nil
}
