package abr

// Fresh builds the named algorithm from its constructor, never from the
// free list — the reference a recycled instance is held to — and reports
// whether the registry recycles that name at all.
func Fresh(name string) (Algorithm, bool) {
	r, ok := recyclers[name]
	if !ok {
		return nil, false
	}
	return r.fresh(), true
}

// BoundPlan returns the plan a BBA-1-family instance last decided on, or
// nil for any other algorithm.
func BoundPlan(a Algorithm) *TitlePlan {
	switch x := a.(type) {
	case *BBA1:
		return x.bound
	case *BBA2:
		return x.steady.bound
	case *BBAOthers:
		return x.core.steady.bound
	}
	return nil
}
