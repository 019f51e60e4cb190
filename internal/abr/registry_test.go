package abr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"bba/internal/units"
)

// TestRegistryRoundTrip pins the registry contract for every entry: the
// name constructs, the constructed algorithm reports the registered name,
// consecutive constructions are independent instances, and each entry's
// capability probes (SeekAware, ReservoirReporter, CapacitySeeded) behave
// when exercised.
func TestRegistryRoundTrip(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("registry has %d entries, expected the full built-in set", len(names))
	}
	s := cbrStream(t)
	for _, name := range names {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("New(%q).Name() = %q: registry key and Name() must agree", name, a.Name())
		}
		b, err := New(name)
		if err != nil {
			t.Fatalf("New(%q) second construction: %v", name, err)
		}
		// Stateful (pointer-typed) algorithms must come out as distinct
		// instances; the stateless value types (Rmin/Rmax Always) are
		// exempt — they carry nothing to share.
		if av, bv := reflect.ValueOf(a), reflect.ValueOf(b); av.Kind() == reflect.Pointer && av.Pointer() == bv.Pointer() {
			t.Errorf("New(%q) returned the same instance twice: factories must build fresh state machines", name)
		}

		// Exercise every capability the entry advertises; none may panic
		// or corrupt the next decision.
		if ca, ok := a.(CapacitySeeded); ok {
			ca.SeedCapacity(3 * units.Mbps)
		}
		if sa, ok := a.(SeekAware); ok {
			sa.Seeked()
		}
		got := a.Next(stateAt(30*time.Second, -1, 0), s)
		if got < 0 || got >= len(s.Ladder()) {
			t.Errorf("%s: first decision %d outside the ladder", name, got)
		}
		if rr, ok := a.(ReservoirReporter); ok {
			if res, prot, ok2 := rr.LastReservoir(); ok2 && (res < 0 || prot < 0) {
				t.Errorf("%s: negative reservoir report (%v, %v)", name, res, prot)
			}
		}
	}
}

// TestRegistryCapabilityCoverage pins which built-ins advertise which
// capabilities, so a refactor that silently drops an interface (and with it
// history seeding or seek handling) fails loudly.
func TestRegistryCapabilityCoverage(t *testing.T) {
	wantSeeded := map[string]bool{
		"Control": true, "PID": true, "ELASTIC": true,
		"SmoothThroughput": true, "Hybrid": true,
	}
	wantSeek := map[string]bool{"BBA-2": true, "BBA-Others": true}
	wantReservoir := map[string]bool{"BBA-1": true, "BBA-2": true, "BBA-Others": true}
	for _, name := range Names() {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := a.(CapacitySeeded); ok != wantSeeded[name] {
			t.Errorf("%s: CapacitySeeded = %v, want %v", name, ok, wantSeeded[name])
		}
		if _, ok := a.(SeekAware); ok != wantSeek[name] {
			t.Errorf("%s: SeekAware = %v, want %v", name, ok, wantSeek[name])
		}
		if _, ok := a.(ReservoirReporter); ok != wantReservoir[name] {
			t.Errorf("%s: ReservoirReporter = %v, want %v", name, ok, wantReservoir[name])
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := New("no-such-algorithm")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// The error must enumerate the registry so command-line help stays in
	// sync with what is selectable.
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error does not mention %q: %v", name, err)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { Register("BBA-0", func() Algorithm { return NewBBA0() }) })
	mustPanic("empty name", func() { Register("", func() Algorithm { return NewBBA0() }) })
	mustPanic("nil factory", func() { Register("nil-factory", nil) })
}

// thirdParty is a registry test double honouring the Name()==key contract.
type thirdParty struct{ RminAlways }

func (thirdParty) Name() string { return "test-registry-third-party" }

func TestRegisterThirdParty(t *testing.T) {
	// Registration order is append-only, so a test-local registration is
	// observable but does not disturb the built-in prefix. (It stays for
	// the life of the test binary; it keeps the Name()==key contract so
	// later registry-walking tests still pass.)
	name := thirdParty{}.Name()
	if _, ok := Lookup(name); ok {
		t.Skipf("%q already registered (repeated run in one binary)", name)
	}
	Register(name, func() Algorithm { return thirdParty{} })
	if _, ok := Lookup(name); !ok {
		t.Fatalf("Lookup(%q) after Register: not found", name)
	}
	names := Names()
	if names[len(names)-1] != name {
		t.Errorf("new registration not last in Names(): %v", names)
	}
	a, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(thirdParty); !ok {
		t.Errorf("New(%q) built %T", name, a)
	}
}

// FuzzNew exercises the registry lookup with arbitrary names: it must never
// panic, and must construct exactly the registered set.
func FuzzNew(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	f.Add("")
	f.Add("bba-0")
	f.Add("BBA-0 ")
	registered := map[string]bool{}
	for _, n := range Names() {
		registered[n] = true
	}
	f.Fuzz(func(t *testing.T, name string) {
		a, err := New(name)
		switch {
		case registered[name]:
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if a.Name() != name {
				t.Fatalf("New(%q).Name() = %q", name, a.Name())
			}
		default:
			if err == nil {
				t.Fatalf("New(%q) accepted an unregistered name (built %s)", name, a.Name())
			}
		}
	})
}

// TestRecycledPristineHoldsNoReferences is the structural half of the
// recycling contract: a released instance is reset by copying its
// constructor's value over it, which is a reset only if that value holds
// nothing a session writes through — no non-nil slice, map, pointer,
// interface, func or chan, embedded structs included. A constructor that
// fills one (Hybrid's two pointers) would have every recycled instance
// share it.
func TestRecycledPristineHoldsNoReferences(t *testing.T) {
	if len(recyclers) == 0 {
		t.Fatal("no built-in is recycled")
	}
	for name, r := range recyclers {
		pristine := reflect.ValueOf(r.fresh()).Elem()
		if path, ok := nonNilReference(pristine, pristine.Type().Name()); ok {
			t.Errorf("%s is recycled, but its constructed value holds a non-nil reference at %s", name, path)
		}
	}
}

// nonNilReference returns the path of the first non-nil reference in v.
func nonNilReference(v reflect.Value, path string) (string, bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return path, !v.IsNil()
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p, ok := nonNilReference(v.Field(i), path+"."+v.Type().Field(i).Name); ok {
				return p, true
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p, ok := nonNilReference(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); ok {
				return p, true
			}
		}
	}
	return "", false
}

// TestReleaseIgnoresOtherTypes: Release keys on Name() but takes back only
// the recycled type registered under it, and resets what it takes to the
// registered constructor's value whatever the instance was configured as.
func TestReleaseIgnoresOtherTypes(t *testing.T) {
	Release(NewCustom("BBA-1", func(_, _ time.Duration) units.BitRate { return 0 }))
	Release(RminAlways{})
	if a, err := New("BBA-1"); err != nil {
		t.Fatal(err)
	} else if _, ok := a.(*BBA1); !ok {
		t.Fatalf("New(BBA-1) handed out a %T", a)
	}
	h := NewHybrid()
	Release(h)
	if a, err := New("Hybrid"); err != nil || a == Algorithm(h) {
		t.Fatalf("New(Hybrid) = %p, %v: a Hybrid is never recycled", a, err)
	}
	Release(NewAggressiveControl())
	a, err := New("Control")
	if err != nil {
		t.Fatal(err)
	}
	if c := a.(*Control); *c != *NewControl() {
		t.Fatalf("a released Control came back as %+v, want the constructor's %+v", *c, *NewControl())
	}
}
