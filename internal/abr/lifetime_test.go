package abr_test

import (
	"runtime"
	"testing"
	"weak"

	"bba/internal/abr"
	"bba/internal/player"
)

// TestPlansDieWithTitle: a title's reservoir plans live on the title, so
// once nothing reaches the title its plans are garbage too. A process-wide
// plan table keyed by title would keep them, and the title with them: a
// soak daemon that draws a new catalog cycle after cycle would leak every
// one.
func TestPlansDieWithTitle(t *testing.T) {
	plan := playDroppedTitle(t)
	runtime.GC()
	if plan.Value() != nil {
		t.Fatal("a BBA-2 session's plan outlived its title")
	}
}

// playDroppedTitle plays a BBA-2 session on a fresh title and returns only
// a weak pointer to the plan it decided on: the title, the session and the
// algorithm are dropped on return.
func playDroppedTitle(t *testing.T) weak.Pointer[abr.TitlePlan] {
	t.Helper()
	cfg := recycleSession(t, 5)
	alg := abr.NewBBA2()
	cfg.Algorithm = alg
	if _, err := player.Run(cfg); err != nil {
		t.Fatal(err)
	}
	plan := abr.BoundPlan(alg)
	if plan == nil {
		t.Fatal("the BBA-2 session bound no plan")
	}
	return weak.Make(plan)
}
