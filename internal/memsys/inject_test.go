package memsys

import (
	"reflect"
	"testing"
)

// drain runs n Fire() calls and returns the fired sequence numbers.
func drain(in *Injector, n uint64) []uint64 {
	var fired []uint64
	for i := uint64(0); i < n; i++ {
		if in.Fire() {
			fired = append(fired, in.Seq())
		}
	}
	return fired
}

func TestInjectorNth(t *testing.T) {
	in := NewInjector(InjectConfig{Nth: 3})
	fired := drain(in, 10)
	want := []uint64{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if in.Injected() != 3 || in.Seq() != 10 {
		t.Fatalf("injected=%d seq=%d, want 3 and 10", in.Injected(), in.Seq())
	}
}

func TestInjectorAfterGate(t *testing.T) {
	in := NewInjector(InjectConfig{Nth: 1, After: 5})
	fired := drain(in, 10)
	if len(fired) != 5 || fired[0] != 6 {
		t.Fatalf("After=5 Nth=1 fired %v, want events 6..10", fired)
	}
}

func TestInjectorMaxFaultsCap(t *testing.T) {
	in := NewInjector(InjectConfig{Nth: 2, MaxFaults: 3})
	drain(in, 100)
	if in.Injected() != 3 {
		t.Fatalf("injected %d faults, MaxFaults=3", in.Injected())
	}
	if in.Seq() != 100 {
		t.Fatalf("seq stopped advancing at %d", in.Seq())
	}
}

func TestInjectorProbDeterministicAndSeeded(t *testing.T) {
	const n = 10_000
	a := NewInjector(InjectConfig{Seed: 1, Prob: 0.1})
	b := NewInjector(InjectConfig{Seed: 1, Prob: 0.1})
	fa, fb := drain(a, n), drain(b, n)
	if len(fa) != len(fb) {
		t.Fatalf("same seed diverged: %d vs %d faults", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("same seed diverged at fault %d: seq %d vs %d", i, fa[i], fb[i])
		}
	}
	// Rate is within a loose band around 10%.
	if len(fa) < n/20 || len(fa) > n/5 {
		t.Fatalf("Prob=0.1 fired %d/%d times", len(fa), n)
	}
	// A different seed gives a different pattern.
	c := NewInjector(InjectConfig{Seed: 2, Prob: 0.1})
	fc := drain(c, n)
	same := len(fc) == len(fa)
	if same {
		for i := range fa {
			if fa[i] != fc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault patterns")
	}
}

func TestInjectorNthAndProbCompose(t *testing.T) {
	// Nth alone fires exactly n/Nth times; adding Prob can only add faults.
	nthOnly := NewInjector(InjectConfig{Nth: 100})
	both := NewInjector(InjectConfig{Seed: 7, Nth: 100, Prob: 0.05})
	a, b := drain(nthOnly, 1000), drain(both, 1000)
	if len(b) <= len(a) {
		t.Fatalf("Nth+Prob fired %d times, Nth alone %d — Prob added nothing", len(b), len(a))
	}
}

// TestFailAllocMatchesFire: FailAlloc applies Fire's rule at the
// caller's sequence number, so stepping it through 1, 2, 3, ... fires on
// exactly the events Fire does, under every policy knob.
func TestFailAllocMatchesFire(t *testing.T) {
	for _, cfg := range []InjectConfig{
		{},
		{Nth: 7},
		{Seed: 99, Prob: 0.25},
		{Seed: 7, Nth: 100, Prob: 0.05},
		{Nth: 1, After: 10, MaxFaults: 3},
		{Seed: 0xBEEF, Prob: 0.25, Nth: 7, After: 40, MaxFaults: 50},
	} {
		fire, alloc := NewInjector(cfg), NewInjector(cfg)
		for seq := uint64(1); seq <= 4000; seq++ {
			if f, a := fire.Fire(), alloc.FailAlloc(seq); f != a {
				t.Fatalf("%+v: seq %d: Fire=%v FailAlloc=%v", cfg, seq, f, a)
			}
		}
		if fire.Injected() != alloc.Injected() {
			t.Fatalf("%+v: injected %d vs %d", cfg, fire.Injected(), alloc.Injected())
		}
		if !cfg.Enabled() && alloc.Injected() != 0 {
			t.Fatalf("%+v: disabled config failed %d allocations", cfg, alloc.Injected())
		}
	}
}

// failAllocs steps FailAlloc through seq 1..n and returns the failed seqs.
func failAllocs(in *Injector, n uint64) []uint64 {
	var fails []uint64
	for seq := uint64(1); seq <= n; seq++ {
		if in.FailAlloc(seq) {
			fails = append(fails, seq)
		}
	}
	return fails
}

func TestFailAllocProbDeterministic(t *testing.T) {
	a := NewInjector(InjectConfig{Seed: 99, Prob: 0.25})
	b := NewInjector(InjectConfig{Seed: 99, Prob: 0.25})
	fa, fb := failAllocs(a, 4000), failAllocs(b, 4000)
	if !reflect.DeepEqual(fa, fb) {
		t.Fatal("same seed diverged")
	}
	// 4000 trials at p=0.25: expect ~1000; allow a wide deterministic band.
	if len(fa) < 800 || len(fa) > 1200 {
		t.Fatalf("p=0.25 over 4000 trials hit %d times", len(fa))
	}
	// A different seed must give a different fault pattern.
	c := NewInjector(InjectConfig{Seed: 100, Prob: 0.25})
	a = NewInjector(InjectConfig{Seed: 99, Prob: 0.25})
	if reflect.DeepEqual(failAllocs(c, 200), failAllocs(a, 200)) {
		t.Fatal("seeds 99 and 100 produced identical patterns over 200 allocations")
	}
}

func TestFailAllocAfterAndMax(t *testing.T) {
	in := NewInjector(InjectConfig{Nth: 1, After: 10, MaxFaults: 3})
	if fails, want := failAllocs(in, 20), []uint64{11, 12, 13}; !reflect.DeepEqual(fails, want) {
		t.Fatalf("failed at %v, want %v", fails, want)
	}
	if in.Injected() != 3 {
		t.Fatalf("Injected() = %d, want 3", in.Injected())
	}
}

func TestFailAllocZeroConfigNeverFails(t *testing.T) {
	in := NewInjector(InjectConfig{})
	if fails := failAllocs(in, 1000); len(fails) != 0 {
		t.Fatalf("zero-config injector failed seqs %v", fails)
	}
}

// TestFailAllocUsesCallerSeq: FailAlloc decides at the sequence number it
// is given and leaves the injector's own event counter alone.
func TestFailAllocUsesCallerSeq(t *testing.T) {
	in := NewInjector(InjectConfig{Nth: 5})
	var fails []uint64
	for _, seq := range []uint64{3, 5, 9, 10, 20, 21, 1000} {
		if in.FailAlloc(seq) {
			fails = append(fails, seq)
		}
	}
	if want := []uint64{5, 10, 20, 1000}; !reflect.DeepEqual(fails, want) {
		t.Fatalf("failed at %v, want %v", fails, want)
	}
	if in.Injected() != 4 || in.Seq() != 0 {
		t.Fatalf("injected=%d seq=%d, want 4 and 0", in.Injected(), in.Seq())
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	if in.Fire() || in.FailAlloc(1) {
		t.Fatal("nil injector fired")
	}
	if in.Injected() != 0 || in.Seq() != 0 || in.Mode() != ModeDrop {
		t.Fatal("nil injector reports non-zero state")
	}
}

func TestInjectConfigEnabled(t *testing.T) {
	if (InjectConfig{}).Enabled() {
		t.Fatal("zero config claims enabled")
	}
	if !(InjectConfig{Nth: 1}).Enabled() || !(InjectConfig{Prob: 0.5}).Enabled() {
		t.Fatal("non-zero Nth/Prob not enabled")
	}
	// A disabled config's injector never fires.
	in := NewInjector(InjectConfig{Seed: 9, After: 3})
	if f := drain(in, 50); len(f) != 0 {
		t.Fatalf("disabled injector fired at %v", f)
	}
}

func TestParseTargets(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Target
	}{
		{"tlb", TargetTLB},
		{"TLB", TargetTLB},
		{"tlb,cache", TargetTLB | TargetCache},
		{"pwc, dram", TargetPWC | TargetDRAM},
		{"all", TargetAll},
		{"tlb,all", TargetAll},
	} {
		got, err := ParseTargets(tc.in)
		if err != nil {
			t.Fatalf("ParseTargets(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseTargets(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", ",", "l2tlb", "tlb,bogus"} {
		if _, err := ParseTargets(bad); err == nil {
			t.Fatalf("ParseTargets(%q) accepted", bad)
		}
	}
}

func TestTargetString(t *testing.T) {
	if s := (TargetTLB | TargetDRAM).String(); s != "dram,tlb" {
		t.Fatalf("String() = %q, want sorted %q", s, "dram,tlb")
	}
	if s := Target(0).String(); s != "none" {
		t.Fatalf("zero target String() = %q", s)
	}
	if s := TargetAll.String(); s != "cache,dram,pwc,tlb" {
		t.Fatalf("all targets String() = %q", s)
	}
}

func TestModeString(t *testing.T) {
	if ModeDrop.String() != "drop" || ModePoison.String() != "poison" {
		t.Fatalf("mode strings: %q %q", ModeDrop, ModePoison)
	}
}
