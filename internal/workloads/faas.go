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
	out     sink
}

func newFuncGen(env Env, b FuncBehavior, seed uint64) *funcGen {
	return &funcGen{
		env:  env,
		rng:  NewRNG(seed ^ uint64(b.LinesPerPage)*0x9176),
		b:    b,
		code: newCodeWalker(env.P, NewRNG(seed^0xF5F5), 0.15, 0.12, env.RBin, env.RLibs, env.RInfra),
	}
}

// build adds the function's next steps to the sink: its ReqStart fetch
// first, then a run of lines on the current input page, and a ReqEnd
// fetch once the input has been processed.
func (g *funcGen) build() bool {
	d := &g.env
	switch {
	case g.done:
		return false
	case !g.started:
		g.started = true
		g.code.next(g.out.slot(), sim.ReqStart)
		return true
	case g.page >= g.b.InputPages || g.page >= d.RDataset.Pages:
		g.done = true
		g.code.next(g.out.slot(), sim.ReqEnd)
		return true
	}
	// Touch a run of lines on the current input page, interleaved with
	// instruction fetches.
	va := d.pageVA(&d.RDataset, g.page)
	for i := 0; i < 8 && g.line < g.b.LinesPerPage; i++ {
		line := g.line * (linesPerPage / g.b.LinesPerPage) % linesPerPage
		g.out.data(va+memdefs.VAddr(line*lineBytes), false, g.b.ThinkPerLine)
		g.touched++
		g.line++
		if g.b.OutWriteEvery > 0 && g.touched%g.b.OutWriteEvery == 0 {
			g.out.data(d.pageVA(&d.RPrivate, g.touched%d.RPrivate.Pages)+lineOff(uint64(g.touched)), true, 3)
		}
		// Occasionally read runtime globals/config (shared data pages of
		// the infrastructure image).
		if g.touched%32 == 0 {
			g.out.data(d.pageVA(&d.RInfra, g.rng.Intn(d.RInfra.Pages))+lineOff(uint64(g.touched)), false, 3)
		}
	}
	g.code.next(g.out.slot(), sim.ReqNone)
	if g.line >= g.b.LinesPerPage {
		g.line = 0
		g.page++
	}
	return true
}

// Next implements sim.Generator; returns false once the input has been
// fully processed. The execution window (ReqStart..ReqEnd) covers only
// the function's own work: the container's bring-up runs first via a
// Chain and is timed separately.
func (g *funcGen) Next(out *sim.Step) bool {
	return g.out.next(out, g.build)
}

// NextBatch implements sim.BatchGenerator; zero means the function's
// input is fully processed.
func (g *funcGen) NextBatch(buf []sim.Step) int {
	return g.out.batch(buf, g.build, false)
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
	out                                         sink
	started                                     bool
}

// NewBringUp builds the bring-up generator for the container env
// describes.
func NewBringUp(env Env, seed uint64) *BringUp {
	return &BringUp{env: env, rng: NewRNG(seed ^ 0xBEEF)}
}

func (b *BringUp) Next(out *sim.Step) bool {
	return b.out.next(out, b.fill)
}

// NextBatch implements sim.BatchGenerator; zero signals the end of
// bring-up.
func (b *BringUp) NextBatch(buf []sim.Step) int {
	return b.out.batch(buf, b.fill, false)
}

// fill adds the next bring-up step to the sink, or reports false once
// bring-up is over.
func (b *BringUp) fill() bool {
	d, p := &b.env, b.env.P
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
		*b.out.slot() = sim.Step{VA: p.ProcVA(gva), Write: write, Kind: kind, Think: 12, Req: mark}
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
			*b.out.slot() = sim.Step{VA: p.ProcVA(d.RBin.Start), Kind: memdefs.AccessInstr, Think: 12, Req: sim.ReqEnd}
			return true
		default:
			return false
		}
	}
}
