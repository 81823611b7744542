package physmem

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
)

func TestAllocUnref(t *testing.T) {
	m := New(1 << 20) // 256 frames
	free0 := m.FreeFrames()
	p, err := m.Alloc(FrameData)
	if err != nil {
		t.Fatal(err)
	}
	if p == 0 {
		t.Fatal("allocated reserved frame 0")
	}
	if m.FreeFrames() != free0-1 || m.Allocated() != 1 {
		t.Fatalf("accounting: free=%d alloc=%d", m.FreeFrames(), m.Allocated())
	}
	if m.Refs(p) != 1 {
		t.Fatalf("refs = %d", m.Refs(p))
	}
	m.Ref(p)
	if got := m.Unref(p); got != 1 {
		t.Fatalf("after unref refs = %d", got)
	}
	if got := m.Unref(p); got != 0 {
		t.Fatalf("final unref = %d", got)
	}
	if m.FreeFrames() != free0 || m.Allocated() != 0 {
		t.Fatal("frame not returned to pool")
	}
	if m.Kind(p) != FrameFree {
		t.Fatal("freed frame still typed")
	}
}

func TestTableFrames(t *testing.T) {
	m := New(1 << 20)
	p := m.MustAlloc(FrameTable)
	tbl := m.Table(p)
	if tbl == nil {
		t.Fatal("no table array")
	}
	m.WriteEntry(p, 5, 0xDEAD)
	if m.ReadEntry(p, 5) != 0xDEAD {
		t.Fatal("entry readback failed")
	}
	if got := EntryAddr(p, 5); got != p.Addr()+40 {
		t.Fatalf("EntryAddr = %#x", got)
	}
	d := m.MustAlloc(FrameData)
	defer func() {
		if recover() == nil {
			t.Fatal("Table() on data frame did not panic")
		}
	}()
	m.Table(d)
}

func TestExhaustion(t *testing.T) {
	m := New(8 * memdefs.PageSize) // tiny
	for {
		if _, err := m.Alloc(FrameData); err != nil {
			if err != ErrOutOfMemory {
				t.Fatalf("wrong error: %v", err)
			}
			return
		}
	}
}

func TestBlocks(t *testing.T) {
	m := New(64 << 20) // 16384 frames; quarter reserved for blocks
	if m.FreeBlocks() == 0 {
		t.Fatal("no blocks reserved")
	}
	nb := m.FreeBlocks()
	base, err := m.AllocBlock(FrameData)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(base)%memdefs.TableSize != 0 {
		t.Fatalf("block base %d not 512-aligned", base)
	}
	if m.FreeBlocks() != nb-1 {
		t.Fatal("block accounting wrong")
	}
	if m.Get(base).BlockPages != memdefs.TableSize {
		t.Fatal("base frame not marked as block")
	}
	m.Ref(base)
	m.Unref(base)
	if m.FreeBlocks() != nb-1 {
		t.Fatal("block freed while referenced")
	}
	m.Unref(base)
	if m.FreeBlocks() != nb {
		t.Fatal("block not returned")
	}
}

func TestPeakTracking(t *testing.T) {
	m := New(1 << 20)
	var ps []memdefs.PPN
	for i := 0; i < 10; i++ {
		ps = append(ps, m.MustAlloc(FrameData))
	}
	for _, p := range ps {
		m.Unref(p)
	}
	if m.PeakAllocated() != 10 {
		t.Fatalf("peak = %d, want 10", m.PeakAllocated())
	}
}

func TestRefcountInvariantQuick(t *testing.T) {
	m := New(4 << 20)
	// Property: for any sequence of extra ref counts, after matching
	// unrefs the frame returns to the pool exactly once.
	f := func(extraRefs uint8) bool {
		n := int(extraRefs % 16)
		p, err := m.Alloc(FrameData)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			m.Ref(p)
		}
		for i := 0; i < n; i++ {
			if m.Unref(p) == 0 {
				return false // freed too early
			}
		}
		return m.Unref(p) == 0 && m.Kind(p) == FrameFree
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGetBounds(t *testing.T) {
	m := New(1 << 20) // 256 frames
	n := m.NumFrames()
	cases := []struct {
		name      string
		ppn       memdefs.PPN
		wantPanic bool
		wantKind  FrameKind
	}{
		{"reserved-zero", 0, false, FrameFree},
		{"first-allocatable", 1, false, FrameFree},
		{"last-valid", memdefs.PPN(n - 1), false, FrameFree},
		{"one-past-end", memdefs.PPN(n), true, FrameFree},
		{"far-past-end", memdefs.PPN(n) * 2, true, FrameFree},
		{"max-uint64", memdefs.PPN(^uint64(0)), true, FrameFree},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if tc.wantPanic && r == nil {
					t.Fatalf("Get(%d) did not panic", tc.ppn)
				}
				if !tc.wantPanic && r != nil {
					t.Fatalf("Get(%d) panicked: %v", tc.ppn, r)
				}
			}()
			f := m.Get(tc.ppn)
			if f.Kind != tc.wantKind {
				t.Fatalf("Get(%d).Kind = %v, want %v", tc.ppn, f.Kind, tc.wantKind)
			}
		})
	}
	// The reserved null frame must never be handed out, but it is a real,
	// inspectable frame.
	if f := m.Get(0); f.Refs != 0 || f.Kind != FrameFree {
		t.Fatalf("reserved frame 0 mutated: %+v", f)
	}
}

type nthInjector struct{ n uint64 }

func (i nthInjector) FailAlloc(seq uint64) bool { return seq%i.n == 0 }

func TestInjectorSeam(t *testing.T) {
	m := New(1 << 20)
	m.SetInjector(nthInjector{n: 3})
	var fails int
	for i := 0; i < 9; i++ {
		_, err := m.Alloc(FrameData)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("injected error does not unwrap to ErrOutOfMemory: %v", err)
			}
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("unexpected error: %v", err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("9 allocations with every-3rd injector failed %d times, want 3", fails)
	}
	if m.InjectedFaults() != 3 {
		t.Fatalf("InjectedFaults() = %d, want 3", m.InjectedFaults())
	}
	// Disabling the injector restores normal service and keeps the counter.
	m.SetInjector(nil)
	if _, err := m.Alloc(FrameData); err != nil {
		t.Fatalf("alloc with injector removed: %v", err)
	}
	if m.InjectedFaults() != 3 {
		t.Fatal("InjectedFaults reset by SetInjector(nil)")
	}
	if rep := m.Audit(); !rep.OK() {
		t.Fatalf("audit after injection: %s", rep)
	}
}

// TestMemsysInjectorWiredIntoMemory: the memsys injector plugs into the
// allocator seam and fails exactly every Nth allocation, even with
// allocations arriving from several goroutines while another reads the
// injector's count (run under -race).
func TestMemsysInjectorWiredIntoMemory(t *testing.T) {
	m := New(4 << 20)
	inj := memsys.NewInjector(memsys.InjectConfig{Nth: 2})
	m.SetInjector(inj)
	const workers, perWorker = 4, 50
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		errs     int
		frames   []memdefs.PPN
		stopRead = make(chan struct{})
		readDone = make(chan struct{})
	)
	go func() {
		defer close(readDone)
		for {
			select {
			case <-stopRead:
				return
			default:
				_ = inj.Injected()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p, err := m.Alloc(FrameData)
				mu.Lock()
				if err != nil {
					if !errors.Is(err, ErrOutOfMemory) {
						t.Errorf("injected fault does not unwrap to ErrOutOfMemory: %v", err)
					}
					errs++
				} else {
					frames = append(frames, p)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stopRead)
	<-readDone
	const total = workers * perWorker
	if errs != total/2 || inj.Injected() != total/2 || m.InjectedFaults() != total/2 {
		t.Fatalf("every-2nd injector over %d allocs: errors=%d injector=%d memory=%d, want %d each",
			total, errs, inj.Injected(), m.InjectedFaults(), total/2)
	}
	for _, p := range frames {
		m.Unref(p)
	}
	if rep := m.Audit(); !rep.OK() {
		t.Fatalf("audit: %s", rep)
	}
}

func TestAuditDetectsCorruption(t *testing.T) {
	m := New(1 << 20)
	p := m.MustAlloc(FrameData)
	if rep := m.Audit(); !rep.OK() {
		t.Fatalf("clean memory audits dirty: %s", rep)
	}
	// Corrupt: clear the refcount behind the allocator's back.
	m.Get(p).Refs = 0
	rep := m.Audit()
	if rep.OK() {
		t.Fatal("audit missed a zero-ref allocated frame")
	}
	m.Get(p).Refs = 1
	if rep := m.Audit(); !rep.OK() {
		t.Fatalf("audit still dirty after repair: %s", rep)
	}
}

// refMemory is the 4KB-frame allocator Memory replaced, kept as the
// reference: New pushed every PPN of [1, blockStart) onto the free stack,
// highest first, and Alloc popped it. Memory now bump-allocates the
// never-used frames instead, and must hand out the same sequence.
type refMemory struct {
	frames   []Frame
	free     []memdefs.PPN
	blocks   []memdefs.PPN
	inj      Injector
	allocSeq uint64
}

func newRefMemory(bytes uint64) *refMemory {
	n := int(bytes / memdefs.PageSize)
	if n < 2 {
		n = 2
	}
	m := &refMemory{frames: make([]Frame, n)}
	blockStart := n - n/4
	blockStart = (blockStart + memdefs.TableSize - 1) &^ (memdefs.TableSize - 1)
	for b := blockStart; b+memdefs.TableSize <= n; b += memdefs.TableSize {
		m.blocks = append(m.blocks, memdefs.PPN(b))
	}
	if blockStart > n {
		blockStart = n
	}
	m.free = make([]memdefs.PPN, 0, blockStart)
	for i := blockStart - 1; i >= 1; i-- {
		m.free = append(m.free, memdefs.PPN(i))
	}
	return m
}

func (m *refMemory) injectFault() bool {
	m.allocSeq++
	return m.inj != nil && m.inj.FailAlloc(m.allocSeq)
}

func (m *refMemory) Alloc(kind FrameKind) (memdefs.PPN, error) {
	if m.injectFault() {
		return 0, ErrInjectedFault
	}
	if len(m.free) == 0 {
		return 0, ErrOutOfMemory
	}
	ppn := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.frames[ppn] = Frame{Kind: kind, Refs: 1}
	return ppn, nil
}

func (m *refMemory) AllocBlock(kind FrameKind) (memdefs.PPN, error) {
	if m.injectFault() {
		return 0, ErrInjectedFault
	}
	if len(m.blocks) == 0 {
		return 0, ErrOutOfMemory
	}
	base := m.blocks[len(m.blocks)-1]
	m.blocks = m.blocks[:len(m.blocks)-1]
	m.frames[base] = Frame{Kind: kind, Refs: 1, BlockPages: memdefs.TableSize}
	return base, nil
}

func (m *refMemory) Ref(ppn memdefs.PPN) int {
	m.frames[ppn].Refs++
	return int(m.frames[ppn].Refs)
}

func (m *refMemory) Unref(ppn memdefs.PPN) int {
	f := &m.frames[ppn]
	f.Refs--
	if f.Refs > 0 {
		return int(f.Refs)
	}
	if f.BlockPages == memdefs.TableSize {
		*f = Frame{}
		m.blocks = append(m.blocks, ppn)
		return 0
	}
	*f = Frame{}
	m.free = append(m.free, ppn)
	return 0
}

func (m *refMemory) FreeFrames() int { return len(m.free) }

// TestBumpAllocatorMatchesReference drives Memory and refMemory with the
// same seeded random sequences of Alloc, AllocBlock, Ref and Unref, on
// memories small enough to run dry, with and without an injector. After
// every operation both must return the same PPN or count, the same error
// and the same FreeFrames.
func TestBumpAllocatorMatchesReference(t *testing.T) {
	cases := []struct {
		bytes uint64
		nth   uint64 // injector period; 0 = no injector
	}{
		{0, 0},
		{8 * memdefs.PageSize, 0},
		{1 << 20, 0},
		{1 << 20, 5},
		{8 << 20, 0},
		{8 << 20, 7},
		{16 << 20, 3},
	}
	kinds := []FrameKind{FrameData, FrameTable, FrameKernel}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			got, want := New(tc.bytes), newRefMemory(tc.bytes)
			if tc.nth != 0 {
				got.SetInjector(nthInjector{n: tc.nth})
				want.inj = nthInjector{n: tc.nth}
			}
			r := rand.New(rand.NewSource(seed))
			var live []memdefs.PPN // one entry per reference held
			allocBias := 40 + r.Intn(50)
			for op := 0; op < 6000; op++ {
				var desc string
				var g, w int
				var gerr, werr error
				switch x := r.Intn(100); {
				case x < 3:
					desc = "AllocBlock"
					gp, ge := got.AllocBlock(FrameData)
					wp, we := want.AllocBlock(FrameData)
					g, w, gerr, werr = int(gp), int(wp), ge, we
					if ge == nil && we == nil {
						live = append(live, gp)
					}
				case x < allocBias:
					k := kinds[r.Intn(len(kinds))]
					desc = "Alloc(" + k.String() + ")"
					gp, ge := got.Alloc(k)
					wp, we := want.Alloc(k)
					g, w, gerr, werr = int(gp), int(wp), ge, we
					if ge == nil && we == nil {
						live = append(live, gp)
					}
				case len(live) == 0:
					continue
				case x < allocBias+10:
					p := live[r.Intn(len(live))]
					desc = "Ref"
					g, w = got.Ref(p), want.Ref(p)
					live = append(live, p)
				default:
					i := r.Intn(len(live))
					p := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					desc = "Unref"
					g, w = got.Unref(p), want.Unref(p)
				}
				if g != w || gerr != werr {
					t.Fatalf("%d bytes, nth %d, seed %d, op %d %s: got (%d, %v), reference (%d, %v)",
						tc.bytes, tc.nth, seed, op, desc, g, gerr, w, werr)
				}
				if gf, wf := got.FreeFrames(), want.FreeFrames(); gf != wf {
					t.Fatalf("%d bytes, nth %d, seed %d, op %d %s: FreeFrames %d, reference %d",
						tc.bytes, tc.nth, seed, op, desc, gf, wf)
				}
			}
			rep := got.Audit()
			if !rep.OK() {
				t.Fatalf("%d bytes, seed %d: %s", tc.bytes, seed, rep)
			}
			if rep.FreeListLen != len(want.free) {
				t.Fatalf("%d bytes, seed %d: FreeListLen %d, reference free list %d",
					tc.bytes, seed, rep.FreeListLen, len(want.free))
			}
		}
	}
}

// TestAuditNeverAllocatedRange: the frames past the bump pointer were
// never handed out, so any use of one, or a free-list entry pointing
// there, is corruption.
func TestAuditNeverAllocatedRange(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(m *Memory, untouched memdefs.PPN)
	}{
		{"kind", func(m *Memory, p memdefs.PPN) { m.frame(p).Kind = FrameData }},
		{"refcount", func(m *Memory, p memdefs.PPN) { m.frame(p).Refs = 1 }},
		{"table", func(m *Memory, p memdefs.PPN) { m.frame(p).Table = new([memdefs.TableSize]uint64) }},
		{"free-list", func(m *Memory, p memdefs.PPN) { m.free = append(m.free, p) }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			m := New(1 << 20)
			m.Unref(m.MustAlloc(FrameData)) // one frame on the free list
			m.MustAlloc(FrameData)          // and back off it
			m.MustAlloc(FrameData)          // one more from the bump pointer
			if rep := m.Audit(); !rep.OK() {
				t.Fatalf("clean memory audits dirty: %s", rep)
			}
			c.corrupt(m, m.next+3)
			// Other rules may fire too; the never-allocated rule must.
			if rep := m.Audit(); !strings.Contains(rep.String(), "never") {
				t.Fatalf("audit missed a corrupted never-allocated frame: %s", rep)
			}
		})
	}
}

// TestFrameMetadataAllocatedOnUse: a new Memory holds no frame metadata;
// handing out a frame or a block allocates only that frame's chunk, and
// neither the read-only accessors nor Audit allocate more.
func TestFrameMetadataAllocatedOnUse(t *testing.T) {
	m := New(1 << 30)
	chunks := func() int {
		n := 0
		for _, c := range m.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	if got := chunks(); got != 0 {
		t.Fatalf("new memory holds %d chunks, want 0", got)
	}
	m.MustAlloc(FrameTable)
	if _, err := m.AllocBlock(FrameData); err != nil {
		t.Fatal(err)
	}
	untouched := memdefs.PPN(100_000) // never handed out
	if m.Kind(untouched) != FrameFree || m.Refs(untouched) != 0 {
		t.Fatalf("untouched frame %d: kind %v, refs %d", untouched, m.Kind(untouched), m.Refs(untouched))
	}
	m.ForEachAllocated(func(memdefs.PPN, Frame) {})
	if rep := m.Audit(); !rep.OK() {
		t.Fatalf("audit: %s", rep)
	}
	if got := chunks(); got != 2 {
		t.Fatalf("after one frame and one block: %d chunks, want 2", got)
	}
}
