package tlb

import (
	"fmt"
	"testing"

	"babelfish/internal/memdefs"
)

// slot is one valid way of a structure: its flat index and its entry
// (with the entry's LRU tick).
type slot struct {
	idx int
	e   Entry
}

// tlbState is everything a structure's behaviour depends on, with the
// layout left out: an unfilled structure and an allocated empty one have
// equal states.
type tlbState struct {
	stats Stats
	tick  uint64
	valid []slot
}

func stateOf(t *TLB) tlbState {
	s := tlbState{stats: t.stats, tick: t.tick}
	for i, w := range t.tagw {
		if w&tagValid != 0 {
			s.valid = append(s.valid, slot{i, t.entries[i]})
		}
	}
	return s
}

// lazyPair drives one group whose structures allocate on first fill and
// one whose structures were all allocated up front, and fails on the
// first operation after which their results or states differ.
type lazyPair struct {
	t           *testing.T
	lazy, eager *Group
}

func newLazyPair(t *testing.T, cfg GroupConfig) *lazyPair {
	eager := NewGroup(cfg)
	for _, s := range eager.BydSize {
		if s != nil {
			s.alloc()
		}
	}
	return &lazyPair{t: t, lazy: NewGroup(cfg), eager: eager}
}

// do applies op to both groups and compares what it returned and the
// states it left.
func (p *lazyPair) do(name string, op func(*Group) string) {
	p.t.Helper()
	if a, b := op(p.lazy), op(p.eager); a != b {
		p.t.Fatalf("%s: lazy returned %s, eager %s", name, a, b)
	}
	for sz, l := range p.lazy.BydSize {
		if l == nil {
			continue
		}
		a, b := stateOf(l), stateOf(p.eager.BydSize[sz])
		if fmt.Sprint(a) != fmt.Sprint(b) {
			p.t.Fatalf("%s: %s state differs:\nlazy  %+v\neager %+v", name, l.cfg.Name, a, b)
		}
	}
}

func (p *lazyPair) lookup(va memdefs.VAddr, q Lookup) {
	p.t.Helper()
	p.do(fmt.Sprintf("lookup %#x %+v", va, q), func(g *Group) string {
		r := g.Lookup(va, q)
		e := "nil"
		if r.Entry != nil {
			e = fmt.Sprintf("%+v", *r.Entry)
		}
		return fmt.Sprintf("%v %v %d %s", r.Res, r.Size, r.Lat, e)
	})
}

func (p *lazyPair) insert(sz memdefs.PageSizeClass, e Entry) {
	p.t.Helper()
	p.do(fmt.Sprintf("insert %v %+v", sz, e), func(g *Group) string {
		g.Insert(sz, e)
		return ""
	})
}

func (p *lazyPair) invalidate(va memdefs.VAddr, ccid memdefs.CCID) {
	p.t.Helper()
	p.do(fmt.Sprintf("invalidate %#x", va), func(g *Group) string {
		return fmt.Sprint(g.InvalidateVA(va))
	})
	p.do(fmt.Sprintf("invalidate shared %#x ccid %d", va, ccid), func(g *Group) string {
		return fmt.Sprint(g.InvalidateSharedVA(va, ccid))
	})
}

func (p *lazyPair) flush(pcid memdefs.PCID) {
	p.t.Helper()
	p.do(fmt.Sprintf("flush pcid %d", pcid), func(g *Group) string { return fmt.Sprint(g.FlushPCID(pcid)) })
}

func (p *lazyPair) flushAll() {
	p.t.Helper()
	p.do("flush all", func(g *Group) string { g.FlushAll(); return "" })
}

// unfilled reports the names of the lazy group's structures that hold no
// arrays yet.
func (p *lazyPair) unfilled() []string {
	var out []string
	for _, s := range p.lazy.BydSize {
		if s != nil && s.tagw == nil {
			out = append(out, s.cfg.Name)
		}
	}
	return out
}

// sizedEntry builds an entry for va's page of the given size class.
func sizedEntry(sz memdefs.PageSizeClass, va memdefs.VAddr, pcid memdefs.PCID, ccid memdefs.CCID, owned bool) Entry {
	e := mkEntry(sz.VPNOf(va), memdefs.PPN(sz.VPNOf(va))+7, pcid, ccid)
	e.Owned = owned
	return e
}

// TestLazyMatchesEager: a structure that allocates its arrays on its first
// fill behaves exactly like one allocated up front. Probes and every
// invalidation of never-filled structures, the first fill of a class after
// the group held only other classes, and the LRU evictions that follow
// give the same results, stats, ticks and way contents.
func TestLazyMatchesEager(t *testing.T) {
	for _, mode := range []Mode{TagPCID, TagCCID} {
		for _, cfg := range []GroupConfig{L1DConfig(mode), L2Config(mode, false)} {
			t.Run(fmt.Sprintf("%s-%v", cfg.Name, mode), func(t *testing.T) {
				p := newLazyPair(t, cfg)
				const va = memdefs.VAddr(0x4000_2000_3000)
				q := Lookup{PCID: 1, CCID: 5, PID: 1}
				w := q
				w.Write = true

				// Nothing filled: probes miss, invalidations find nothing.
				p.lookup(va, q)
				p.lookup(va, w)
				p.invalidate(va, 5)
				p.flush(1)
				p.flushAll()
				if got := len(p.unfilled()); got != len(cfg.Structs) {
					t.Fatalf("%d structures unfilled after probes and invalidations, want all %d", got, len(cfg.Structs))
				}

				// 4KB entries only; the 2MB and 1GB classes stay unfilled.
				for i := 0; i < 40; i++ {
					v := va + memdefs.VAddr(i)*memdefs.PageSize
					p.insert(memdefs.Page4K, sizedEntry(memdefs.Page4K, v, memdefs.PCID(1+i%3), 5, i%4 == 0))
					p.lookup(v, q)
				}
				p.invalidate(va+memdefs.HugePageSize2M, 5)
				p.flush(2)
				if got := p.unfilled(); len(got) != len(cfg.Structs)-1 {
					t.Fatalf("unfilled after 4KB fills: %v", got)
				}

				// The first 2MB fill, then enough fills into its set to
				// evict, with probes reordering the set's LRU.
				p.insert(memdefs.Page2M, sizedEntry(memdefs.Page2M, va, 1, 5, false))
				p.lookup(va, q)
				p.lookup(va, w)
				s2 := p.lazy.BydSize[memdefs.Page2M]
				stride := memdefs.VAddr(s2.numSets) * memdefs.HugePageSize2M
				for i := 1; i < s2.ways+3; i++ {
					p.insert(memdefs.Page2M, sizedEntry(memdefs.Page2M, va+memdefs.VAddr(i)*stride, memdefs.PCID(1+i%2), 5, i%3 == 0))
					p.lookup(va+memdefs.VAddr(i%3)*stride, q)
				}
				if s2.stats.Evictions == 0 {
					t.Fatal("no 2MB eviction")
				}
				p.invalidate(va+stride, 5)
				p.flush(2)
				p.lookup(va+2*stride, q)

				// The 1GB class is still unfilled: flushes reach it.
				if got := p.unfilled(); len(got) != 1 {
					t.Fatalf("unfilled after 2MB fills: %v", got)
				}
				p.flushAll()
				p.lookup(va, q)
				p.insert(memdefs.Page1G, sizedEntry(memdefs.Page1G, va, 1, 5, true))
				p.lookup(va, q)
				if got := p.unfilled(); len(got) != 0 {
					t.Fatalf("unfilled after every class was filled: %v", got)
				}
			})
		}
	}
}
