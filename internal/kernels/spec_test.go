package kernels

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// TestKernelSpecTable drives every row of the spec table through its
// entry point. A successful pass must count once in its label's
// spmmrr_kernel_seconds histogram and Attribution passes and record the
// span kernel_<label>; a pass cancelled after its first chunk ran must
// record no attribution pass.
func TestKernelSpecTable(t *testing.T) {
	// Several chunks per pass, so there is a "between chunks" to cancel
	// at even on a single-CPU machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := hubMatrix(t)
	tl, err := aspt.Build(m, aspt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(m.Cols, 8, 1)
	y := dense.New(m.Rows, 8)
	yd := dense.NewRandom(m.Rows, 8, 2)
	out := m.Clone()
	calls := map[string]func(context.Context) error{
		"spmm_rowwise":  func(ctx context.Context) error { return SpMMRowWiseIntoCtx(ctx, y, m, x) },
		"spmm_aspt":     func(ctx context.Context) error { return SpMMASpTIntoCtx(ctx, y, tl, x) },
		"spmm_merge":    func(ctx context.Context) error { return SpMMMergeIntoCtx(ctx, y, m, x) },
		"spmm_hyb":      func(ctx context.Context) error { return SpMMHybridIntoCtx(ctx, y, hyb, x) },
		"sddmm_rowwise": func(ctx context.Context) error { return SDDMMRowWiseIntoCtx(ctx, out, m, x, yd) },
		"sddmm_aspt":    func(ctx context.Context) error { return SDDMMASpTIntoCtx(ctx, out, tl, x, yd) },
	}
	if len(calls) != len(specs) {
		t.Fatalf("spec table has %d kernels, test covers %d", len(specs), len(calls))
	}
	for _, k := range specs {
		call, ok := calls[k.label]
		if !ok {
			t.Fatalf("no entry point under test for spec %q", k.label)
		}
		seconds := obs.Default().Histogram("spmmrr_kernel_seconds", "", nil, obs.L("kernel", k.label))
		count, passes := seconds.Snapshot().Count, attributionPasses(k.label)

		tr := obs.NewTrace("spec")
		if err := call(obs.WithTrace(context.Background(), tr)); err != nil {
			t.Fatalf("%s: %v", k.label, err)
		}
		if got := seconds.Snapshot().Count; got != count+1 {
			t.Errorf("%s: spmmrr_kernel_seconds count %d, want %d", k.label, got, count+1)
		}
		if got := attributionPasses(k.label); got != passes+1 {
			t.Errorf("%s: attribution passes %d, want %d", k.label, got, passes+1)
		}
		if !hasSpan(tr.Snapshot(), "kernel_"+k.label) {
			t.Errorf("%s: no span kernel_%s in %+v", k.label, k.label, tr.Snapshot().Spans)
		}

		ctx, cancel := context.WithCancel(context.Background())
		var chunks atomic.Int64
		restore := faultinject.Set("kernels.exec", func() error {
			if chunks.Add(1) == 1 {
				cancel()
			}
			return nil
		})
		err := call(ctx)
		restore()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled pass = %v, want context.Canceled", k.label, err)
		}
		if got := attributionPasses(k.label); got != passes+1 {
			t.Errorf("%s: cancelled pass recorded attribution (%d passes, want %d)", k.label, got, passes+1)
		}
	}
}

func attributionPasses(label string) int64 {
	for _, s := range Attribution() {
		if s.Kernel == label {
			return s.Passes
		}
	}
	return 0
}

func hasSpan(s obs.TraceSnapshot, name string) bool {
	for _, sp := range s.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}
