package repro_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro"
)

var errDiverged = errors.New("concurrent result diverged from reference")

// TestOnlinePipelineDecides: the synchronous constructor runs the §4
// trial before it returns, so the pipeline is decided — with measured
// trial times and an exposed winner — before any call is served.
func TestOnlinePipelineDecides(t *testing.T) {
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("not decided after construction")
	}
	rrT, nrT := o.TrialTimes()
	if rrT <= 0 || nrT <= 0 {
		t.Fatalf("trial times not recorded: %v %v", rrT, nrT)
	}
	if o.Pipeline() == nil {
		t.Fatalf("no winner exposed")
	}
	if o.PlanFingerprint() == "" {
		t.Fatalf("no winner fingerprint")
	}
	x := repro.NewRandomDense(m.Cols, 16, 1)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	y1, err := o.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := o.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-y1.Data[i])) > 1e-4 ||
			math.Abs(float64(want.Data[i]-y2.Data[i])) > 1e-4 {
			t.Fatalf("online pipeline diverges at %d", i)
		}
	}
}

// TestOnlinePipelineConcurrentUndecided hammers a pipeline from the
// budgeted constructor from many goroutines while its reordered build
// and trial may still be running in the background: calls never wait
// on the build, every result must be correct whichever plan served it,
// and the build still settles undegraded. Run under -race.
func TestOnlinePipelineConcurrentUndecided(t *testing.T) {
	m := freshScrambled(t, 1009)
	o, err := repro.NewOnlinePipelineCtx(context.Background(), m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 16, 1)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([]*repro.Dense, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = o.SpMM(x)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-results[g].Data[i])) > 1e-4 {
				t.Fatalf("goroutine %d diverges at %d", g, i)
			}
		}
	}
	if err := o.WaitPreprocessed(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("build settled but the pipeline is not decided")
	}
	if deg, cause := o.Degraded(); deg {
		t.Fatalf("unbudgeted build degraded: %v", cause)
	}
	if rrT, nrT := o.TrialTimes(); rrT <= 0 || nrT <= 0 {
		t.Fatalf("trial times not recorded: %v %v", rrT, nrT)
	}
}

// TestOnlinePipelineConcurrentDecided checks the lock-free serving
// path: ≥8 goroutines call a freshly constructed pipeline's SpMM (and
// SpMMIntoCtx) concurrently and repeatedly, with no call before them;
// all results must be correct and no state may race.
func TestOnlinePipelineConcurrentDecided(t *testing.T) {
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 16, 1)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const callsEach = 4
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := repro.NewDense(m.Rows, x.Cols)
			for c := 0; c < callsEach; c++ {
				var got *repro.Dense
				var err error
				if c%2 == 0 {
					got, err = o.SpMM(x)
				} else {
					err = o.SpMMIntoCtx(context.Background(), y, x)
					got = y
				}
				if err != nil {
					errCh <- err
					return
				}
				for i := range want.Data {
					if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
						errCh <- errDiverged
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestOnlinePipelineIntoVariants checks the Into entry points,
// including output validation.
func TestOnlinePipelineIntoVariants(t *testing.T) {
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 8, 4)
	yin := repro.NewRandomDense(m.Rows, 8, 5)
	want, err := repro.SpMM(m, x)
	if err != nil {
		t.Fatal(err)
	}
	y := repro.NewDense(m.Rows, 8)
	if err := o.SpMMIntoCtx(context.Background(), y, x); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-y.Data[i])) > 1e-4 {
			t.Fatalf("SpMMIntoCtx diverges at %d", i)
		}
	}
	if err := o.SpMMIntoCtx(context.Background(), repro.NewDense(m.Rows+1, 8), x); err == nil {
		t.Fatalf("accepted wrong-shaped output")
	}
	wantO, err := repro.SDDMM(m, x, yin)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Clone()
	if err := o.SDDMMIntoCtx(context.Background(), out, x, yin); err != nil {
		t.Fatal(err)
	}
	for j := range wantO.Val {
		if math.Abs(float64(wantO.Val[j]-out.Val[j])) > 1e-4 {
			t.Fatalf("SDDMMIntoCtx diverges at %d", j)
		}
	}
	bad := repro.Matrix{Rows: 1, Cols: 1, RowPtr: []int32{0, 0}}
	if err := o.SDDMMIntoCtx(context.Background(), &bad, x, yin); err == nil {
		t.Fatalf("accepted structurally different SDDMM output")
	}
}

func TestOnlinePipelineSDDMM(t *testing.T) {
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 8, 2)
	y := repro.NewRandomDense(m.Rows, 8, 3)
	want, err := repro.SDDMM(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameStructure(m) {
		t.Fatalf("structure changed")
	}
	for j := range want.Val {
		if math.Abs(float64(want.Val[j]-got.Val[j])) > 1e-4 {
			t.Fatalf("online SDDMM diverges at %d", j)
		}
	}
}

// TestOnlinePipelineRejectsBadOutputBeforeTrial: the trial ran at
// construction on its own operand, before any request; a malformed
// output is rejected and leaves that decision exactly as it was.
func TestOnlinePipelineRejectsBadOutputBeforeTrial(t *testing.T) {
	m := scrambled(t)
	x := repro.NewRandomDense(m.Cols, 8, 4)
	yin := repro.NewRandomDense(m.Rows, 8, 5)
	bad := repro.Matrix{Rows: 1, Cols: 1, RowPtr: []int32{0, 0}}
	for name, call := range map[string]func(*repro.OnlinePipeline) error{
		"spmm-wrong-shape": func(o *repro.OnlinePipeline) error {
			return o.SpMMIntoCtx(context.Background(), repro.NewDense(m.Rows+1, 8), x)
		},
		"sddmm-wrong-structure": func(o *repro.OnlinePipeline) error {
			return o.SDDMMIntoCtx(context.Background(), &bad, x, yin)
		},
	} {
		o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, won := o.Decided()
		rrT, nrT := o.TrialTimes()
		fp := o.PlanFingerprint()
		if err := call(o); err == nil {
			t.Fatalf("%s: accepted a malformed output", name)
		}
		_, won2 := o.Decided()
		rrT2, nrT2 := o.TrialTimes()
		if won2 != won || rrT2 != rrT || nrT2 != nrT || o.PlanFingerprint() != fp {
			t.Fatalf("%s: a rejected request changed the trial decision", name)
		}
	}
}
