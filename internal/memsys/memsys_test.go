package memsys

import (
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/telemetry"
)

// fakeDev is a minimal Device with two counters.
type fakeDev struct {
	hits, misses uint64
}

func (d *fakeDev) Name() string { return "fake" }
func (d *fakeDev) DeviceStats() Stats {
	return Stats{
		{Name: "hits", Unit: "hit", Help: "hits", Value: d.hits},
		{Name: "misses", Unit: "miss", Help: "misses", Value: d.misses},
	}
}
func (d *fakeDev) ResetStats() { d.hits, d.misses = 0, 0 }

var _ Device = (*fakeDev)(nil)

func TestStatsGet(t *testing.T) {
	d := &fakeDev{hits: 3, misses: 7}
	s := d.DeviceStats()
	if s.Get("hits") != 3 || s.Get("misses") != 7 {
		t.Fatalf("Get: %+v", s)
	}
	if s.Get("nonexistent") != 0 {
		t.Fatal("Get on absent stat not zero")
	}
}

// TestRegisterDevice: a group of one device registers its stats under
// prefix+"."+stat.Name.
func TestRegisterDevice(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := &fakeDev{hits: 5}
	RegisterSummed(reg, d.Name(), d)
	v, ok := reg.Value("fake.hits")
	if !ok || uint64(v) != 5 {
		t.Fatalf("fake.hits = %v (ok=%v), want 5", v, ok)
	}
	// Pull probe: the metric tracks the device's live counter.
	d.hits = 11
	if v, _ := reg.Value("fake.hits"); uint64(v) != 11 {
		t.Fatalf("probe is a snapshot, not a pull: %v", v)
	}
}

func TestRegisterSummed(t *testing.T) {
	reg := telemetry.NewRegistry()
	devs := []*fakeDev{{hits: 1, misses: 10}, {hits: 2, misses: 20}, {hits: 3, misses: 30}}
	RegisterSummed(reg, "grp", devs[0], devs[1], devs[2])
	if v, _ := reg.Value("grp.hits"); uint64(v) != 6 {
		t.Fatalf("grp.hits = %v, want 6", v)
	}
	if v, _ := reg.Value("grp.misses"); uint64(v) != 60 {
		t.Fatalf("grp.misses = %v, want 60", v)
	}
	devs[1].ResetStats()
	if v, _ := reg.Value("grp.hits"); uint64(v) != 4 {
		t.Fatalf("grp.hits after one reset = %v, want 4", v)
	}
}

func TestRegisterSummedEmpty(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterSummed(reg, "empty") // must not panic
	if reg.Len() != 0 {
		t.Fatalf("empty group registered %d metrics", reg.Len())
	}
}

func TestWhereString(t *testing.T) {
	for _, tc := range []struct {
		w    Where
		want string
	}{
		{WhereL1, "L1"}, {WhereL2, "L2"}, {WhereL3, "L3"}, {WhereMem, "Mem"},
	} {
		if got := tc.w.String(); got != tc.want {
			t.Fatalf("%d.String() = %q, want %q", int(tc.w), got, tc.want)
		}
	}
}

// countPort is a Port recording every access it serves.
type countPort struct {
	accesses uint64
	lat      memdefs.Cycles
	where    Where
}

func (p *countPort) Access(pa memdefs.PAddr, kind memdefs.AccessKind, write bool) (memdefs.Cycles, Where) {
	p.accesses++
	return p.lat, p.where
}

func TestFaultPortRefetch(t *testing.T) {
	below := &countPort{lat: 10, where: WhereMem}
	fp := NewFaultPort(below, NewInjector(InjectConfig{Nth: 3}))
	var total memdefs.Cycles
	for i := 0; i < 9; i++ {
		lat, where := fp.Access(0, memdefs.AccessData, false)
		if where != WhereMem {
			t.Fatalf("access %d served from %v", i, where)
		}
		total += lat
	}
	// 9 requests, every 3rd flipped and refetched: 3 extra accesses below,
	// each charged one extra below-latency.
	if below.accesses != 12 {
		t.Fatalf("below saw %d accesses, want 12", below.accesses)
	}
	if fp.Injected() != 3 {
		t.Fatalf("Injected() = %d, want 3", fp.Injected())
	}
	if total != 12*10 {
		t.Fatalf("total latency %d, want %d", total, 12*10)
	}
	if fp.Below() != Port(below) {
		t.Fatal("Below() does not return the wrapped port")
	}
}

func TestFaultPortNeverFires(t *testing.T) {
	below := &countPort{lat: 4, where: WhereL3}
	fp := NewFaultPort(below, NewInjector(InjectConfig{}))
	for i := 0; i < 100; i++ {
		if lat, _ := fp.Access(0, memdefs.AccessData, true); lat != 4 {
			t.Fatalf("latency %d with disabled injector", lat)
		}
	}
	if below.accesses != 100 || fp.Injected() != 0 {
		t.Fatalf("accesses=%d injected=%d", below.accesses, fp.Injected())
	}
}
