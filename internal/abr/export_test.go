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
