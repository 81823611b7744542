package cache

import (
	"math/rand"
	"testing"

	"babelfish/internal/memdefs"
)

// fakeMem is a constant-latency backend for unit tests.
type fakeMem struct {
	lat      memdefs.Cycles
	accesses int
}

func (f *fakeMem) Access(pa memdefs.PAddr, kind memdefs.AccessKind, write bool) (memdefs.Cycles, Where) {
	f.accesses++
	return f.lat, WhereMem
}

func small(t *testing.T, below Backend) *Cache {
	t.Helper()
	return New(Config{
		Name: "t", SizeBytes: 4096, Ways: 2, LineSize: 64, AccessTime: 2, Level: WhereL1,
	}, below)
}

func TestHitAfterMiss(t *testing.T) {
	mem := &fakeMem{lat: 100}
	c := small(t, mem)
	lat, where := c.Access(0x1000, memdefs.AccessData, false)
	if where != WhereMem || lat != 102 {
		t.Fatalf("first access: lat=%d where=%v", lat, where)
	}
	lat, where = c.Access(0x1000, memdefs.AccessData, false)
	if where != WhereL1 || lat != 2 {
		t.Fatalf("second access: lat=%d where=%v", lat, where)
	}
	// Same line, different byte: still a hit.
	if _, where = c.Access(0x103F, memdefs.AccessData, false); where != WhereL1 {
		t.Fatal("same-line access missed")
	}
	// Next line: miss.
	if _, where = c.Access(0x1040, memdefs.AccessData, false); where != WhereMem {
		t.Fatal("next-line access hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLRUAndWriteback(t *testing.T) {
	mem := &fakeMem{lat: 100}
	c := small(t, mem) // 32 sets x 2 ways, set stride 64*32 = 2048
	base := memdefs.PAddr(0)
	conflict1 := base + 2048
	conflict2 := base + 4096
	c.Access(base, memdefs.AccessData, true) // dirty
	c.Access(conflict1, memdefs.AccessData, false)
	c.Access(base, memdefs.AccessData, false)      // touch base so conflict1 is LRU
	c.Access(conflict2, memdefs.AccessData, false) // evicts conflict1 (clean, no writeback)
	if c.Stats().Writebacks != 0 {
		t.Fatal("clean eviction counted as writeback")
	}
	// Now evict base (dirty): write it back.
	c.Access(conflict1, memdefs.AccessData, false) // evicts... base is MRU? order: base, conflict2 in set
	c.Access(conflict2, memdefs.AccessData, false)
	c.Access(conflict1, memdefs.AccessData, false)
	if c.Stats().Writebacks == 0 {
		t.Fatal("dirty eviction produced no writeback")
	}
}

func TestContainsAndInvalidate(t *testing.T) {
	mem := &fakeMem{lat: 50}
	c := small(t, mem)
	c.Access(0x2000, memdefs.AccessData, false)
	if !c.Contains(0x2000) || c.Contains(0x4000) {
		t.Fatal("Contains wrong")
	}
	c.InvalidateAll()
	if c.Contains(0x2000) {
		t.Fatal("InvalidateAll left line")
	}
}

func TestHierarchyLevels(t *testing.T) {
	mem := &fakeMem{lat: 120}
	l3 := New(DefaultL3Config(), mem)
	h := NewHierarchy(DefaultHierarchyConfig(), l3)

	// First data access goes to memory through every level.
	lat, where := h.Data(0x12345, false)
	if where != WhereMem {
		t.Fatalf("first access served at %v", where)
	}
	wantLat := memdefs.Cycles(2 + 8 + 32 + 120)
	if lat != wantLat {
		t.Fatalf("lat = %d, want %d", lat, wantLat)
	}
	// Second: L1 hit.
	if _, where = h.Data(0x12345, false); where != WhereL1 {
		t.Fatalf("second access served at %v", where)
	}
	// Instruction path is independent: same line misses L1I but hits L2.
	if _, where = h.Instr(0x12345); where != WhereL2 {
		t.Fatalf("instr access served at %v", where)
	}
	// Walker requests bypass L1: new line should be L2-filled.
	if _, where = h.Walker(0x99000, false); where != WhereMem {
		t.Fatalf("walker first access served at %v", where)
	}
	if _, where = h.Walker(0x99000, false); where != WhereL2 {
		t.Fatalf("walker second access served at %v", where)
	}
	// And L1 does not hold walker lines.
	if _, where = h.Data(0x99000, false); where != WhereL2 {
		t.Fatalf("data after walker served at %v", where)
	}
}

func TestCrossCoreL3Sharing(t *testing.T) {
	mem := &fakeMem{lat: 120}
	l3 := New(DefaultL3Config(), mem)
	h0 := NewHierarchy(DefaultHierarchyConfig(), l3)
	h1 := NewHierarchy(DefaultHierarchyConfig(), l3)
	h0.Data(0x5000, false)
	// Another core: misses private levels, hits shared L3 — the paper's
	// Figure 7 "container B hits in the shared L3" effect.
	_, where := h1.Data(0x5000, false)
	if where != WhereL3 {
		t.Fatalf("cross-core access served at %v, want L3", where)
	}
	if mem.accesses != 1 {
		t.Fatalf("memory touched %d times, want 1", mem.accesses)
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sets", Config{SizeBytes: 3000, Ways: 3, LineSize: 64}},
		{"line-size", Config{SizeBytes: 4096, Ways: 2, LineSize: 48}},
		{"zero-ways", Config{SizeBytes: 4096, Ways: 0, LineSize: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad geometry %+v accepted", tc.cfg)
				}
			}()
			tc.cfg.Name, tc.cfg.AccessTime = "bad", 1
			New(tc.cfg, &fakeMem{})
		})
	}
}

func TestWhereStrings(t *testing.T) {
	for w, want := range map[Where]string{
		WhereL1: "L1", WhereL2: "L2", WhereL3: "L3", WhereMem: "Mem",
	} {
		if w.String() != want {
			t.Errorf("%d.String() = %q", w, w.String())
		}
	}
}

func TestResetStatsHierarchy(t *testing.T) {
	mem := &fakeMem{lat: 50}
	l3 := New(DefaultL3Config(), mem)
	h := NewHierarchy(DefaultHierarchyConfig(), l3)
	h.Data(0x100, true)
	h.Instr(0x200)
	h.ResetStats()
	if h.L1D.Stats().Accesses != 0 || h.L1I.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 {
		t.Fatal("hierarchy reset incomplete")
	}
}

// refCache is the tick-based LRU cache the recency-ordered sets replaced,
// kept as a reference model: every line carries the tick of its last
// access, and a miss evicts the first invalid way or else the way with
// the smallest tick. Lines stay in the way they were filled into (the
// old cache also swapped hits to way 0, which no observable depends on).
type refCache struct {
	cfg     Config
	below   Backend
	tags    []uint64
	lru     []uint64
	ways    int
	numSets int
	lineOff uint
	tick    uint64
	stats   Stats
}

func newRef(c *Cache, below Backend) *refCache {
	return &refCache{
		cfg: c.cfg, below: below, ways: c.ways, numSets: c.numSets, lineOff: c.lineOff,
		tags: make([]uint64, len(c.tags)),
		lru:  make([]uint64, len(c.tags)),
	}
}

func (c *refCache) Access(pa memdefs.PAddr, kind memdefs.AccessKind, write bool) (memdefs.Cycles, Where) {
	c.stats.Accesses++
	c.tick++
	blk := uint64(pa) >> c.lineOff
	base := (int(blk) & (c.numSets - 1)) * c.ways
	want := blk | lineValid
	tags := c.tags[base : base+c.ways]
	for i := range tags {
		if tags[i]&^lineDirty == want {
			c.stats.Hits++
			c.lru[base+i] = c.tick
			if write {
				tags[i] |= lineDirty
			}
			return c.cfg.AccessTime, c.cfg.Level
		}
	}
	c.stats.Misses++
	lat, where := c.below.Access(pa, kind, false)
	victim := 0
	for i := range tags {
		if tags[i]&lineValid == 0 {
			victim = i
			break
		}
		if c.lru[base+i] < c.lru[base+victim] {
			victim = i
		}
	}
	if tags[victim]&(lineValid|lineDirty) == lineValid|lineDirty {
		c.stats.Writebacks++
	}
	tags[victim] = want
	if write {
		tags[victim] |= lineDirty
	}
	c.lru[base+victim] = c.tick
	return c.cfg.AccessTime + lat, where
}

func (c *refCache) Contains(pa memdefs.PAddr) bool {
	blk := uint64(pa) >> c.lineOff
	base := (int(blk) & (c.numSets - 1)) * c.ways
	for _, w := range c.tags[base : base+c.ways] {
		if w&^lineDirty == blk|lineValid {
			return true
		}
	}
	return false
}

func (c *refCache) InvalidateAll() {
	clear(c.tags)
	clear(c.lru)
}

// TestLRUEquivalence drives the recency-ordered cache and the tick-based
// reference with the same seeded read/write streams and requires the
// same latency, serving level, counters and residency after every access.
func TestLRUEquivalence(t *testing.T) {
	for _, g := range []struct {
		name       string
		ways, sets int
	}{
		{"1way", 1, 16},
		{"1way-1set", 1, 1},
		{"2way", 2, 32},
		{"2way-1set", 2, 1},
		{"8way", 8, 8},
		{"8way-1set", 8, 1},
		{"16way", 16, 4},
		{"16way-1set", 16, 1},
	} {
		t.Run(g.name, func(t *testing.T) {
			const line = 64
			c := New(Config{
				Name: g.name, SizeBytes: g.ways * g.sets * line, Ways: g.ways,
				LineSize: line, AccessTime: 2, Level: WhereL1,
			}, &fakeMem{lat: 100})
			if c.numSets != g.sets {
				t.Fatalf("numSets = %d, want %d", c.numSets, g.sets)
			}
			ref := newRef(c, &fakeMem{lat: 100})
			rng := rand.New(rand.NewSource(int64(g.ways*1000 + g.sets)))
			// Three times the capacity in distinct lines keeps every set
			// under conflict pressure while still re-hitting lines.
			lines := 3 * g.ways * g.sets
			const n = 20000
			for i := 0; i < n; i++ {
				if i == n/2 {
					c.InvalidateAll()
					ref.InvalidateAll()
				}
				pa := memdefs.PAddr(rng.Intn(lines)*line + rng.Intn(line))
				write := rng.Intn(3) == 0
				lat, where := c.Access(pa, memdefs.AccessData, write)
				rlat, rwhere := ref.Access(pa, memdefs.AccessData, write)
				if lat != rlat || where != rwhere {
					t.Fatalf("access %d (%#x write=%v): got (%d, %v), reference (%d, %v)",
						i, pa, write, lat, where, rlat, rwhere)
				}
				if c.Stats() != ref.stats {
					t.Fatalf("access %d: stats %+v, reference %+v", i, c.Stats(), ref.stats)
				}
				if !c.Contains(pa) || !ref.Contains(pa) {
					t.Fatalf("access %d: touched line %#x not resident", i, pa)
				}
				other := memdefs.PAddr(rng.Intn(lines) * line)
				if c.Contains(other) != ref.Contains(other) {
					t.Fatalf("access %d: Contains(%#x) = %v, reference %v",
						i, other, c.Contains(other), ref.Contains(other))
				}
			}
			if st := c.Stats(); st.Writebacks == 0 || st.Hits == 0 {
				t.Fatalf("stream exercised no writebacks or hits: %+v", st)
			}
		})
	}
}
