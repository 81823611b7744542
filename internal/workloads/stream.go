package workloads

import (
	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/sim"
)

// codeWalker models the instruction stream: a hot loop advancing line by
// line through the application's hot code pages (binary + libraries +
// runtime), with occasional jumps to other hot pages (calls into
// libraries). One emitted I-fetch step stands for a whole 64-byte fetch
// line, i.e. ~16 instructions of think time on the 2-issue core.
type codeWalker struct {
	rng      *RNG
	hotPages []memdefs.VAddr // hot page base addresses (process VA)
	page     int             // current hot page index
	line     int             // current line within the page
	jumpProb float64
}

const (
	lineBytes     = 64
	linesPerPage  = memdefs.PageSize / lineBytes
	instrsPerLine = 15 // think-instructions represented by one I-fetch
)

// newCodeWalker picks hotFrac of the pages of each region as the hot set.
// A process's ASLR offsets are fixed at fork, so the hot pages are
// translated to process VAs once, here.
func newCodeWalker(proc *kernel.Process, rng *RNG, hotFrac float64, jumpProb float64, regions ...kernel.Region) *codeWalker {
	w := &codeWalker{rng: rng, jumpProb: jumpProb}
	for _, r := range regions {
		hot := int(float64(r.Pages) * hotFrac)
		if hot < 1 {
			hot = 1
		}
		if hot > r.Pages {
			hot = r.Pages
		}
		stride := r.Pages / hot
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < hot; i++ {
			w.hotPages = append(w.hotPages, proc.ProcVA(r.PageVA(i*stride)))
		}
	}
	if len(w.hotPages) == 0 {
		panic("workloads: code walker with no pages")
	}
	return w
}

// next fills s with the next instruction fetch, marked req.
func (w *codeWalker) next(s *sim.Step, req sim.ReqMark) {
	*s = sim.Step{
		VA:    w.hotPages[w.page] + memdefs.VAddr(w.line*lineBytes),
		Kind:  memdefs.AccessInstr,
		Think: instrsPerLine,
		Req:   req,
	}
	w.line++
	if w.line >= linesPerPage || w.rng.Bool(w.jumpProb) {
		w.line = w.rng.Intn(linesPerPage)
		w.page = w.rng.Intn(len(w.hotPages))
	}
}

// pageVA returns the process VA of page idx of r. Adding a line offset
// below memdefs.PageSize gives the same address as translating the
// line's group VA: ASLR offsets are fixed per segment and a page never
// crosses a segment window.
func (e *Env) pageVA(r *kernel.Region, idx int) memdefs.VAddr {
	return e.P.ProcVA(r.PageVA(idx))
}

// lineOff is the offset in its page of the line a salt selects (spreads
// accesses across lines).
func lineOff(salt uint64) memdefs.VAddr {
	return memdefs.VAddr((salt * lineBytes) % memdefs.PageSize)
}

// sink is where every generator builds its steps. A builder asks for the
// next slot and fills it in place: inside batch the slots are the
// caller's buffer, and only the steps past its end go to carry, which
// the next call hands out first.
type sink struct {
	buf   []sim.Step // the caller's buffer while batch builds
	n     int        // slots of buf handed out
	carry []sim.Step // steps built past the end of buf
	head  int        // next carry step to hand out
}

// slot returns the next step to fill.
func (k *sink) slot() *sim.Step {
	if k.n < len(k.buf) {
		k.n++
		return &k.buf[k.n-1]
	}
	return k.spill()
}

func (k *sink) spill() *sim.Step {
	k.carry = append(k.carry, sim.Step{})
	return &k.carry[len(k.carry)-1]
}

// data fills the next slot with a data access.
func (k *sink) data(va memdefs.VAddr, write bool, think int) {
	*k.slot() = sim.Step{VA: va, Kind: memdefs.AccessData, Write: write, Think: think}
}

// batch implements sim.BatchGenerator's NextBatch for a generator whose
// build adds one unit of work (a request, an operation) to the sink and
// reports false once the stream has ended. Carried steps go first. A
// kernel-mutating generator (once) builds only when nothing is carried,
// and at most once per call; a pure one builds until buf is full.
func (k *sink) batch(buf []sim.Step, build func() bool, once bool) int {
	n := copy(buf, k.carry[k.head:])
	k.head += n
	if k.head < len(k.carry) {
		return n
	}
	k.carry, k.head = k.carry[:0], 0
	if once && n > 0 {
		return n
	}
	k.buf, k.n = buf, n
	for k.n < len(buf) && build() {
		if once {
			break
		}
	}
	n = k.n
	k.buf, k.n = nil, 0
	return n
}

// next implements sim.Generator's Next over the same build: everything a
// build adds is carried, then handed out a step at a time.
func (k *sink) next(out *sim.Step, build func() bool) bool {
	for k.head == len(k.carry) {
		k.carry, k.head = k.carry[:0], 0
		if !build() {
			return false
		}
	}
	*out = k.carry[k.head]
	k.head++
	return true
}

// Chain concatenates generators: each is drained before the next starts.
// Used to run a container's bring-up sequence before its workload.
type Chain struct {
	Gens []sim.Generator
	i    int
}

// NewChain builds a chained generator.
func NewChain(gens ...sim.Generator) *Chain { return &Chain{Gens: gens} }

// Next implements sim.Generator.
func (c *Chain) Next(out *sim.Step) bool {
	for c.i < len(c.Gens) {
		if c.Gens[c.i].Next(out) {
			return true
		}
		c.i++
	}
	return false
}

// MutatesKernel implements sim.KernelMutator: a chain mutates kernel
// state while producing steps iff any of its links does.
func (c *Chain) MutatesKernel() bool {
	for _, g := range c.Gens {
		if km, ok := g.(sim.KernelMutator); ok && km.MutatesKernel() {
			return true
		}
	}
	return false
}

// NextBatch implements sim.BatchGenerator: one call returns one chunk
// from the current link (its own NextBatch when it has one, a single
// step otherwise), advancing to the next link exactly where Next would.
// It deliberately does not loop to fill buf — a link's build machinery
// may mutate kernel state, and chaining a second build before the first
// chunk's steps execute would move those mutations earlier in machine
// time than step-at-a-time generation.
func (c *Chain) NextBatch(buf []sim.Step) int {
	for c.i < len(c.Gens) {
		if bg, ok := c.Gens[c.i].(sim.BatchGenerator); ok {
			if k := bg.NextBatch(buf); k > 0 {
				return k
			}
		} else if c.Gens[c.i].Next(&buf[0]) {
			return 1
		}
		c.i++
	}
	return 0
}
