// Package physmem models physical memory as a pool of 4KB frames.
//
// Only page-table frames carry real contents (their 512 eight-byte
// entries); data frames are bookkeeping-only, since the simulator models
// timing and sharing, not data values. The allocator hands out frame
// numbers and tracks per-frame metadata (kind, reference count) so the
// kernel model can implement CoW sharing and table reclamation.
package physmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"babelfish/internal/memdefs"
)

// bugPanics counts invariant violations detected inside physmem before
// they panic. The kernel auditor reads it through BugPanics so recovered
// panics (tests, chaos harnesses) still leave a trace.
var bugPanics uint64

// BugPanics reports how many physmem invariant violations have fired
// process-wide since start.
func BugPanics() uint64 { return atomic.LoadUint64(&bugPanics) }

// bugf records an invariant violation and panics. These are programmer
// errors (double free, ref of a free frame), never load-dependent
// conditions; load-dependent failures return errors instead.
func bugf(format string, args ...interface{}) {
	atomic.AddUint64(&bugPanics, 1)
	panic(fmt.Sprintf(format, args...))
}

// FrameKind labels what a physical frame is used for.
type FrameKind int

const (
	FrameFree   FrameKind = iota
	FrameData             // application/file data page
	FrameTable            // page-table page (stores 512 entries)
	FrameKernel           // kernel metadata (e.g. MaskPages)
)

func (k FrameKind) String() string {
	switch k {
	case FrameFree:
		return "free"
	case FrameData:
		return "data"
	case FrameTable:
		return "table"
	case FrameKernel:
		return "kernel"
	}
	return fmt.Sprintf("FrameKind(%d)", int(k))
}

// Frame is the metadata of one physical frame.
type Frame struct {
	Kind FrameKind
	// Refs counts users of the frame: processes mapping a data page
	// (for CoW accounting) or parents pointing at a table page.
	Refs int
	// BlockPages is 512 on the base frame of a 2MB block (huge page),
	// and 0 or 1 for ordinary frames.
	BlockPages int
	// Table holds the 512 entries when Kind == FrameTable.
	Table *[memdefs.TableSize]uint64
}

// Injector decides whether an allocation attempt should artificially
// fail. It is the seam chaos tests use to model memory pressure (see
// memsys.Injector). seq is the 1-based allocation sequence number of
// the Memory. Implementations are called with the Memory's lock held and
// must not call back into it.
type Injector interface {
	FailAlloc(seq uint64) bool
}

// chunkFrames is the number of frames whose metadata is allocated
// together: one 2MB block's worth.
const chunkFrames = memdefs.TableSize

// frameChunk is the metadata of one aligned run of chunkFrames frames.
type frameChunk [chunkFrames]Frame

// Memory is a physical memory of a fixed number of frames. A quarter of
// the frames are reserved as 2MB-aligned blocks for huge-page allocation.
type Memory struct {
	mu sync.Mutex
	// chunks holds the frame metadata. A chunk is allocated when one of
	// its frames is first handed out, and a nil chunk's frames are all
	// free, so a machine's heap grows with the memory it uses rather
	// than with its capacity.
	chunks  []*frameChunk
	nframes int
	// The 4KB frames [1, blockStart) are handed out from two places: free,
	// a LIFO stack of frames returned by Unref, and, when it is empty, the
	// bump pointer next. Frames in [next, blockStart) have never been
	// allocated. The order is that of one stack holding every PPN,
	// lowest on top; frame layout feeds cache and TLB indexing, so it
	// must not change.
	free       []memdefs.PPN
	next       memdefs.PPN
	blockStart memdefs.PPN
	blocks     []memdefs.PPN // free 512-frame aligned blocks (base PPNs)
	inj        Injector
	// Stats
	allocated int
	peak      int
	allocSeq  uint64
	injected  uint64
}

// New creates a physical memory with the given capacity in bytes.
// Frame 0 is reserved (never allocated) so that PPN 0 can mean "null".
func New(bytes uint64) *Memory {
	n := int(bytes / memdefs.PageSize)
	if n < 2 {
		n = 2
	}
	m := &Memory{chunks: make([]*frameChunk, (n+chunkFrames-1)/chunkFrames), nframes: n}
	// Reserve the top quarter (rounded to whole aligned 2MB blocks) for
	// huge pages.
	blockStart := n - n/4
	blockStart = (blockStart + memdefs.TableSize - 1) &^ (memdefs.TableSize - 1)
	for b := blockStart; b+memdefs.TableSize <= n; b += memdefs.TableSize {
		m.blocks = append(m.blocks, memdefs.PPN(b))
	}
	if blockStart > n {
		blockStart = n
	}
	// Hand out low frame numbers first.
	m.next, m.blockStart = 1, memdefs.PPN(blockStart)
	return m
}

// frame returns a frame's metadata, allocating its chunk on first use.
// Called with m.mu held.
func (m *Memory) frame(ppn memdefs.PPN) *Frame {
	m.checkRange(ppn)
	c := m.chunks[ppn/chunkFrames]
	if c == nil {
		c = new(frameChunk)
		m.chunks[ppn/chunkFrames] = c
	}
	return &c[ppn%chunkFrames]
}

// peek returns a copy of an in-range frame's metadata without allocating
// its chunk. Called with m.mu held.
func (m *Memory) peek(ppn memdefs.PPN) Frame {
	if c := m.chunks[ppn/chunkFrames]; c != nil {
		return c[ppn%chunkFrames]
	}
	return Frame{}
}

func (m *Memory) checkRange(ppn memdefs.PPN) {
	if uint64(ppn) >= uint64(m.nframes) {
		bugf("physmem: PPN %d out of range (%d frames)", ppn, m.nframes)
	}
}

// freeFrames counts the unallocated 4KB frames. Called with m.mu held.
func (m *Memory) freeFrames() int {
	return len(m.free) + int(m.blockStart-m.next)
}

// SetInjector installs (or, with nil, removes) the allocation fault
// injector. Production paths pay one nil check per allocation when no
// injector is set.
func (m *Memory) SetInjector(inj Injector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inj = inj
}

// InjectedFaults reports how many allocations the injector has failed.
func (m *Memory) InjectedFaults() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.injected
}

// injectFault advances the allocation sequence and consults the injector.
// Called with m.mu held.
func (m *Memory) injectFault() bool {
	m.allocSeq++
	if m.inj != nil && m.inj.FailAlloc(m.allocSeq) {
		m.injected++
		return true
	}
	return false
}

// AllocBlock allocates a 2MB-aligned block of 512 frames for a huge page,
// returning the base frame. The base carries the block's reference count.
func (m *Memory) AllocBlock(kind FrameKind) (memdefs.PPN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injectFault() {
		return 0, ErrInjectedFault
	}
	if len(m.blocks) == 0 {
		return 0, ErrOutOfMemory
	}
	base := m.blocks[len(m.blocks)-1]
	m.blocks = m.blocks[:len(m.blocks)-1]
	f := m.frame(base)
	f.Kind = kind
	f.Refs = 1
	f.BlockPages = memdefs.TableSize
	for i := 1; i < memdefs.TableSize; i++ {
		m.frame(base + memdefs.PPN(i)).Kind = kind
	}
	m.allocated += memdefs.TableSize
	if m.allocated > m.peak {
		m.peak = m.allocated
	}
	return base, nil
}

// FreeBlocks reports how many 2MB blocks remain free.
func (m *Memory) FreeBlocks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blocks)
}

// NumFrames returns the total number of frames (including reserved frame 0).
func (m *Memory) NumFrames() int { return m.nframes }

// FreeFrames returns how many frames are currently unallocated.
func (m *Memory) FreeFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freeFrames()
}

// Allocated returns how many frames are currently in use.
func (m *Memory) Allocated() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocated
}

// PeakAllocated returns the high-water mark of allocated frames.
func (m *Memory) PeakAllocated() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// ErrOutOfMemory is returned when no free frame exists.
var ErrOutOfMemory = fmt.Errorf("physmem: out of physical frames")

// ErrInjectedFault is returned when the configured Injector fails an
// allocation. It wraps ErrOutOfMemory so callers handle both identically
// (errors.Is(err, ErrOutOfMemory) is true for injected faults).
var ErrInjectedFault = fmt.Errorf("%w (injected fault)", ErrOutOfMemory)

// Alloc allocates one frame of the given kind with an initial reference
// count of 1. Table frames get a zeroed entry array.
func (m *Memory) Alloc(kind FrameKind) (memdefs.PPN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.injectFault() {
		return 0, ErrInjectedFault
	}
	var ppn memdefs.PPN
	switch k := len(m.free); {
	case k > 0:
		ppn = m.free[k-1]
		m.free = m.free[:k-1]
	case m.next < m.blockStart:
		ppn = m.next
		m.next++
	default:
		return 0, ErrOutOfMemory
	}
	f := m.frame(ppn)
	f.Kind = kind
	f.Refs = 1
	if kind == FrameTable {
		f.Table = new([memdefs.TableSize]uint64)
	} else {
		f.Table = nil
	}
	m.allocated++
	if m.allocated > m.peak {
		m.peak = m.allocated
	}
	return ppn, nil
}

// MustAlloc is Alloc that panics on exhaustion; used by tests and setup
// code where memory is provisioned by construction.
func (m *Memory) MustAlloc(kind FrameKind) memdefs.PPN {
	ppn, err := m.Alloc(kind)
	if err != nil {
		panic(err)
	}
	return ppn
}

// Get returns the metadata for a frame. The returned pointer is stable for
// the life of the Memory. PPN 0 is valid to inspect — it is the reserved
// null frame, permanently FrameFree with zero references — matching the
// allocator's view that every PPN in [0, NumFrames) is a real frame even
// though frame 0 is never handed out. Out-of-range PPNs are a caller bug.
//
// Get takes no lock when the frame's chunk exists, as it does for every
// frame that was ever handed out; the page walker reads table frames
// through it.
func (m *Memory) Get(ppn memdefs.PPN) *Frame {
	m.checkRange(ppn)
	if c := m.chunks[ppn/chunkFrames]; c != nil {
		return &c[ppn%chunkFrames]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frame(ppn)
}

// Kind reports the kind of a frame (FrameFree for out-of-range PPNs and
// the reserved null frame 0).
func (m *Memory) Kind(ppn memdefs.PPN) FrameKind {
	m.mu.Lock()
	defer m.mu.Unlock()
	if uint64(ppn) >= uint64(m.nframes) {
		return FrameFree
	}
	return m.peek(ppn).Kind
}

// Ref increments the reference count of an allocated frame and returns the
// new count.
func (m *Memory) Ref(ppn memdefs.PPN) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.frame(ppn)
	if f.Kind == FrameFree {
		bugf("physmem: Ref of free frame %d", ppn)
	}
	f.Refs++
	return f.Refs
}

// Refs returns the current reference count of a frame.
func (m *Memory) Refs(ppn memdefs.PPN) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkRange(ppn)
	return m.peek(ppn).Refs
}

// ForEachAllocated calls fn for every non-free frame with a copy of its
// metadata, in ascending PPN order. Used by the auditors.
func (m *Memory) ForEachAllocated(fn func(ppn memdefs.PPN, f Frame)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 1; i < m.nframes; i++ {
		if f := m.peek(memdefs.PPN(i)); f.Kind != FrameFree {
			fn(memdefs.PPN(i), f)
		}
	}
}

// Unref decrements the reference count; when it reaches zero the frame is
// returned to the free pool. Reports the new count.
func (m *Memory) Unref(ppn memdefs.PPN) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.frame(ppn)
	if f.Kind == FrameFree {
		bugf("physmem: Unref of free frame %d", ppn)
	}
	if f.Refs <= 0 {
		bugf("physmem: Unref of frame %d with refcount %d", ppn, f.Refs)
	}
	f.Refs--
	if f.Refs == 0 {
		if f.BlockPages == memdefs.TableSize {
			for i := 0; i < memdefs.TableSize; i++ {
				m.frame(ppn + memdefs.PPN(i)).Kind = FrameFree
			}
			f.BlockPages = 0
			f.Table = nil
			m.blocks = append(m.blocks, ppn)
			m.allocated -= memdefs.TableSize
			return 0
		}
		f.Kind = FrameFree
		f.Table = nil
		m.free = append(m.free, ppn)
		m.allocated--
		return 0
	}
	return f.Refs
}

// Table returns the entry array of a table frame.
func (m *Memory) Table(ppn memdefs.PPN) *[memdefs.TableSize]uint64 {
	f := m.Get(ppn)
	if f.Kind != FrameTable || f.Table == nil {
		bugf("physmem: frame %d is not a table frame (%v)", ppn, f.Kind)
	}
	return f.Table
}

// ReadEntry reads the idx-th 8-byte entry of a table frame. The load is
// atomic: in sharded machine stepping several hardware walkers read table
// entries concurrently while others fold in Accessed/Dirty bits via
// OrEntry.
func (m *Memory) ReadEntry(ppn memdefs.PPN, idx int) uint64 {
	return atomic.LoadUint64(&m.Table(ppn)[idx])
}

// WriteEntry writes the idx-th 8-byte entry of a table frame. Only the
// kernel writes entries, and kernel mutations are serialized, so a plain
// release store suffices.
func (m *Memory) WriteEntry(ppn memdefs.PPN, idx int, v uint64) {
	atomic.StoreUint64(&m.Table(ppn)[idx], v)
}

// OrEntry atomically ORs mask into the idx-th entry of a table frame —
// the hardware walker's Accessed/Dirty update. OR is idempotent and
// commutative, so concurrent walkers touching the same entry leave the
// same final state regardless of interleaving.
func (m *Memory) OrEntry(ppn memdefs.PPN, idx int, mask uint64) {
	atomic.OrUint64(&m.Table(ppn)[idx], mask)
}

// EntryAddr returns the physical address of the idx-th entry of a table
// frame — the address a hardware page walker would fetch.
func EntryAddr(ppn memdefs.PPN, idx int) memdefs.PAddr {
	return ppn.Addr() + memdefs.PAddr(idx*memdefs.PTEBytes)
}
