package workloads

import (
	"babelfish/internal/memdefs"
	"babelfish/internal/sim"
)

// FaaS functions (Section VI): Parse, Hash (djb2) and Marshal, built on
// an OpenFaaS-style runtime image. The three containers on a core run
// different functions but share the runtime/infrastructure pages — the
// paper finds ~90% of their shareable pte_ts are infrastructure. Each
// function runs to completion over an input dataset; the dense variant
// touches every line of a page before moving on, the sparse variant only
// ~10% of a page, so sparse functions touch 10x more pages per unit of
// work and spend far more time in minor faults — that is where BabelFish
// removes up to 55% of execution time.

// FuncBehavior tunes one function's per-page work.
type FuncBehavior struct {
	Name string
	// LinesPerPage touched before advancing (64 = dense full page,
	// 6 ≈ 10% = sparse).
	LinesPerPage int
	// ThinkPerLine is the compute per touched line (hashing is heavier
	// than parsing).
	ThinkPerLine int
	// OutWriteEvery emits an output-buffer write after this many input
	// touches (0 = never).
	OutWriteEvery int
	// InputPages processed before the function completes.
	InputPages int
}

// faasFunctions is the serverless function table, in registration order:
// DeployFaaS maps and prefaults the functions in this order, so it
// decides every function's frames.
var faasFunctions = []FuncBehavior{
	// Parse tokenizes an input string (light per-line work, frequent
	// output).
	{Name: "parse", ThinkPerLine: 380, OutWriteEvery: 8},
	// Hash runs djb2 over the input (heavier compute, no output).
	{Name: "hash", ThinkPerLine: 500},
	// Marshal converts the input string to integers (medium work, output
	// per record).
	{Name: "marshal", ThinkPerLine: 420, OutWriteEvery: 4},
}

// faasFootprint is shared by the three functions: a big runtime image
// (the Docker Hub GCC image of the paper) plus small private state.
func faasFootprint() Footprint {
	return Footprint{
		InfraPages: 4096, BinPages: 192, BinDataPages: 48, LibPages: 1024,
		DatasetPages: 4096, PrivatePages: 192, ScratchPages: 64,
	}
}

// sparseVariant adjusts a behavior for the sparse input pattern: the
// function performs the same work (same number of touched lines) but
// spreads it over ~10x more pages, touching ~10% of each page
// (Section VI: "in sparse, we access about 10% of a page before moving
// to the next one").
func sparseVariant(b FuncBehavior, datasetPages int, sparse bool) FuncBehavior {
	if sparse {
		b.LinesPerPage = 6
		b.InputPages = datasetPages
	} else {
		b.LinesPerPage = 60
		b.InputPages = datasetPages / 10
	}
	if b.InputPages < 4 {
		b.InputPages = 4
	}
	return b
}

type funcGen struct {
	env  Env
	rng  *RNG
	b    FuncBehavior
	code *codeWalker

	page    int
	line    int
	touched int
	started bool
	done    bool
	q       stepQueue
}

func newFuncGen(env Env, b FuncBehavior, seed uint64) *funcGen {
	return &funcGen{
		env:  env,
		rng:  NewRNG(seed ^ uint64(b.LinesPerPage)*0x9176),
		b:    b,
		code: newCodeWalker(env.P, NewRNG(seed^0xF5F5), 0.15, 0.12, env.RBin, env.RLibs, env.RInfra),
	}
}

func (g *funcGen) buildChunk() {
	d, p := &g.env, g.env.P
	var s sim.Step
	if g.page >= g.b.InputPages || g.page >= d.RDataset.Pages {
		g.code.next(&s)
		s.Req = sim.ReqEnd
		g.q.push(s)
		g.done = true
		return
	}
	// Touch a run of lines on the current input page, interleaved with
	// instruction fetches.
	for i := 0; i < 8 && g.line < g.b.LinesPerPage; i++ {
		gva := lineAddr(d.RDataset, g.page, g.line*(linesPerPage/g.b.LinesPerPage))
		dataStep(&s, p, gva, false, g.b.ThinkPerLine)
		g.q.push(s)
		g.touched++
		g.line++
		if g.b.OutWriteEvery > 0 && g.touched%g.b.OutWriteEvery == 0 {
			dataStep(&s, p, pageAddr(d.RPrivate, g.touched%d.RPrivate.Pages, uint64(g.touched)), true, 3)
			g.q.push(s)
		}
		// Occasionally read runtime globals/config (shared data pages of
		// the infrastructure image).
		if g.touched%32 == 0 {
			dataStep(&s, p, pageAddr(d.RInfra, g.rng.Intn(d.RInfra.Pages), uint64(g.touched)), false, 3)
			g.q.push(s)
		}
	}
	g.code.next(&s)
	g.q.push(s)
	if g.line >= g.b.LinesPerPage {
		g.line = 0
		g.page++
	}
}

// Next implements sim.Generator; returns false once the input has been
// fully processed. The execution window (ReqStart..ReqEnd) covers only
// the function's own work: the container's bring-up runs first via a
// Chain and is timed separately.
func (g *funcGen) Next(out *sim.Step) bool {
	if !g.started {
		g.started = true
		g.code.next(out)
		out.Req = sim.ReqStart
		return true
	}
	for g.q.empty() {
		if g.done {
			return false
		}
		g.buildChunk()
	}
	return g.q.pop(out)
}

// NextBatch implements sim.BatchGenerator; zero means the function's
// input is fully processed.
func (g *funcGen) NextBatch(buf []sim.Step) int {
	n := 0
	for n < len(buf) && g.Next(&buf[n]) {
		n++
	}
	return n
}

// BringUp models `docker start` from a pre-created image: the runtime
// initialization touches a prefix of the infra/binary/library pages —
// mostly reads, with some writes into the data segment and early heap.
// Its duration is dominated by minor faults in the baseline; BabelFish's
// fork-time table linking removes most of them.
type BringUp struct {
	env     Env
	rng     *RNG
	noMarks bool // suppress ReqStart/ReqEnd (when embedded in a function)

	seqInfra, seqLibs, seqBin, seqData, seqHeap int
	phase                                       int
	q                                           stepQueue
	started                                     bool
}

// NewBringUp builds the bring-up generator for the container env
// describes.
func NewBringUp(env Env, seed uint64) *BringUp {
	return &BringUp{env: env, rng: NewRNG(seed ^ 0xBEEF)}
}

func (b *BringUp) Next(out *sim.Step) bool {
	if b.q.empty() && !b.fill() {
		return false
	}
	return b.q.pop(out)
}

// NextBatch implements sim.BatchGenerator; zero signals the end of
// bring-up.
func (b *BringUp) NextBatch(buf []sim.Step) int {
	n := 0
	for n < len(buf) {
		if b.q.empty() && !b.fill() {
			break
		}
		n += b.q.popN(buf[n:])
	}
	return n
}

func (b *BringUp) fill() bool {
	d, p := &b.env, b.env.P
	var s sim.Step
	mark := sim.ReqNone
	if !b.started {
		if !b.noMarks {
			mark = sim.ReqStart
		}
		b.started = true
	}
	// Touch pages in phases: binary text, libraries, runtime infra, data
	// segment writes (CoW), early heap writes.
	push := func(gva memdefs.VAddr, write bool, kind memdefs.AccessKind) {
		s.VA = p.ProcVA(gva)
		s.Write = write
		s.Kind = kind
		s.Think = 12
		s.Req = mark
		mark = sim.ReqNone
		b.q.push(s)
	}
	for {
		switch b.phase {
		case 0: // binary text
			if b.seqBin < d.RBin.Pages/2 {
				push(d.RBin.Start+memdefs.VAddr(b.seqBin)*memdefs.PageSize, false, memdefs.AccessInstr)
				b.seqBin++
				return true
			}
			b.phase++
		case 1: // libraries
			if b.seqLibs < d.RLibs.Pages/2 {
				push(d.RLibs.Start+memdefs.VAddr(b.seqLibs)*memdefs.PageSize, false, memdefs.AccessInstr)
				b.seqLibs++
				return true
			}
			b.phase++
		case 2: // runtime infra
			if b.seqInfra < d.RInfra.Pages/2 {
				push(d.RInfra.Start+memdefs.VAddr(b.seqInfra)*memdefs.PageSize, false, memdefs.AccessData)
				b.seqInfra++
				return true
			}
			b.phase++
		case 3: // data segment relocations (CoW writes)
			if b.seqData < d.RBinData.Pages {
				push(d.RBinData.Start+memdefs.VAddr(b.seqData)*memdefs.PageSize, true, memdefs.AccessData)
				b.seqData++
				return true
			}
			b.phase++
		case 4: // early heap
			if b.seqHeap < 24 && b.seqHeap < d.RPrivate.Pages {
				push(d.RPrivate.Start+memdefs.VAddr(b.seqHeap)*memdefs.PageSize, true, memdefs.AccessData)
				b.seqHeap++
				return true
			}
			b.phase++
		case 5:
			b.phase++
			if b.noMarks {
				continue
			}
			s.VA = p.ProcVA(d.RBin.Start)
			s.Kind = memdefs.AccessInstr
			s.Write = false
			s.Think = 12
			s.Req = sim.ReqEnd
			b.q.push(s)
			return true
		default:
			return false
		}
	}
}
