package repro

// ServeReorderedForTest makes a decided online pipeline serve its
// reordered plan, as if the §4 trial had chosen it, so tests of the
// reordered path (its circuit breaker, its fallback) do not depend on
// which plan wins the timing race on the machine running them. The
// reordered plan comes from the plan cache the build filled.
func ServeReorderedForTest(o *OnlinePipeline) error {
	rr, err := NewPipeline(o.Matrix(), o.nr.plan.Cfg)
	if err != nil {
		return err
	}
	o.serving.Store(rr)
	return nil
}
