package workloads

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/mmu"
	"babelfish/internal/pgtable"
	"babelfish/internal/sim"
)

// TestTranslationOracle is the simulator's core correctness invariant:
// whatever the TLBs, PWC and shared tables cache, Translate must always
// produce the same physical frame as a direct software walk of the
// process's page tables. It runs a randomized interleaving of reads,
// CoW-triggering writes, forks (of the template and of running
// containers, which may have left sharing), munmaps, mprotects and exits
// across a container group, on both architectures and every sharing
// variant, and cross-checks every translation. The kernel, allocator and
// TLB audits run after every fork, unmap and protect. Every fork must
// also be invisible to the processes that already exist: each of their
// leaves keeps its frame, and its flags may only lose Write or gain CoW.
//
// Each config also pins a digest of its whole trajectory: every fault's
// returned cycles, the final kernel counters, the free frame count and
// every live leaf entry. A refactor of the kernel's fault, fork, munmap
// or mprotect paths must leave every digest where it is; a behaviour
// change moves only the digests of the configs it touches.
func TestTranslationOracle(t *testing.T) {
	type cfg struct {
		name   string
		mode   kernel.Mode
		level  memdefs.Level
		aslrSW bool
		noPC   bool
		digest uint64
	}
	for _, c := range []cfg{
		{name: "Baseline", mode: kernel.ModeBaseline, level: memdefs.LvlPTE, digest: 0x9570aa8748881681},
		{name: "BabelFish-PTEshare", mode: kernel.ModeBabelFish, level: memdefs.LvlPTE, digest: 0xd8ed9e17f3dc6259},
		{name: "BabelFish-PMDshare", mode: kernel.ModeBabelFish, level: memdefs.LvlPMD, digest: 0x303688ef69a88b0a},
		{name: "BabelFish-NoPCBitmask", mode: kernel.ModeBabelFish, level: memdefs.LvlPTE, noPC: true, digest: 0x4beaec8aff7f611a},
		{name: "BabelFish-PMDshare-NoPCBitmask", mode: kernel.ModeBabelFish, level: memdefs.LvlPMD, noPC: true, digest: 0x870bd763a37b14ea},
		{name: "BabelFish-ASLRSW", mode: kernel.ModeBabelFish, level: memdefs.LvlPTE, aslrSW: true, digest: 0x08cb70b378fcffd8},
	} {
		mode := c.mode
		t.Run(c.name, func(t *testing.T) {
			p := sim.DefaultParams(mode)
			p.Kernel.ShareLevel = c.level
			p.Kernel.NoPCBitmask = c.noPC
			if c.aslrSW {
				p.Kernel.ASLR = kernel.ASLRSW
				p.MMU.ASLRHW = false
			}
			p.Cores = 2
			p.MemBytes = 512 << 20
			m := sim.New(p)
			k := m.Kernel
			h := fnv.New64a()
			for _, core := range m.Cores {
				core.MMU.OS = &digestOS{inner: core.MMU.OS, h: h}
			}
			audit := func(step int, what string) {
				t.Helper()
				if r := k.Audit(); !r.OK() {
					t.Fatalf("step %d, after %s: %s", step, what, r)
				}
				if r := m.Mem.Audit(); !r.OK() {
					t.Fatalf("step %d, after %s: %s", step, what, r)
				}
				if r := m.AuditTLBs(); !r.OK() {
					t.Fatalf("step %d, after %s: TLB %s", step, what, r)
				}
			}
			g := k.NewGroup("oracle", 11)

			tmpl, err := k.CreateProcess(g, "tmpl")
			if err != nil {
				t.Fatal(err)
			}
			file := k.MustCreateFile("file", 96)
			rFile := g.MustRegion("file", kernel.SegMmap, 64)
			rData := g.MustRegion("data", kernel.SegData, 32)
			rHeap := g.MustRegion("heap", kernel.SegHeap, 64)
			// Anonymous THP region: private 2MB blocks, never shared.
			rTHP := g.MustRegion("thp", kernel.SegStack, 1024)
			const rwu = memdefs.PermRead | memdefs.PermWrite | memdefs.PermUser
			tmpl.MustMapFile(rFile, file, 0, memdefs.PermRead|memdefs.PermUser, true, "file")
			tmpl.MustMapFile(rData, file, 64, rwu, true, "data")
			tmpl.MustMapAnon(rHeap, rwu, "heap")
			if v := tmpl.MustMapAnon(rTHP, rwu, "thp"); !v.Huge {
				t.Fatal("thp region not mapped huge")
			}

			procs := []*kernel.Process{}
			ctxs := map[memdefs.PID]*mmu.Ctx{}
			addProc := func(pr *kernel.Process) {
				procs = append(procs, pr)
				ctxs[pr.PID] = &mmu.Ctx{
					PID: pr.PID, PCID: pr.PCID, CCID: pr.CCID,
					Tables:   pr.Tables,
					SharedVA: pr.SharedVAFunc(),
					PCBit:    pr.PCBitFunc(),
					PCMask:   pr.PCMaskFunc(),
				}
			}
			type leafKey struct {
				pid memdefs.PID
				gva memdefs.VAddr
				lvl memdefs.Level
			}
			leaves := func() map[leafKey]pgtable.Entry {
				m := map[leafKey]pgtable.Entry{}
				for _, pr := range k.Processes() {
					pr.Tables.VisitLeaves(func(gva memdefs.VAddr, lvl memdefs.Level, _ memdefs.PPN, _ int, e pgtable.Entry) {
						m[leafKey{pr.PID, gva, lvl}] = e
					})
				}
				return m
			}
			fork := func(step int, parent *kernel.Process, name string) {
				t.Helper()
				before := leaves()
				c, _, err := k.Fork(parent, name)
				if err != nil {
					t.Fatal(err)
				}
				addProc(c)
				audit(step, "fork of "+parent.Name)
				after := leaves()
				const wc = pgtable.FlagWrite | pgtable.FlagCoW
				for key, old := range before {
					e, ok := after[key]
					if !ok || e.PPN() != old.PPN() || e&^wc != old&^wc || (e.Writable() && !old.Writable()) || (old.CoW() && !e.CoW()) {
						t.Fatalf("step %d: fork of %s changed pid %d's leaf at gva %#x (level %v) from %#x to %#x (present %v)",
							step, parent.Name, key.pid, key.gva, key.lvl, uint64(old), uint64(e), ok)
					}
				}
				for key := range after {
					if _, ok := before[key]; !ok && key.pid != c.PID {
						t.Fatalf("step %d: fork of %s added a leaf to pid %d at gva %#x (level %v)", step, parent.Name, key.pid, key.gva, key.lvl)
					}
				}
			}
			remap := func(step int, pr *kernel.Process, r kernel.Region) {
				t.Helper()
				v, ok := pr.FindVMA(r.Start)
				if !ok {
					return
				}
				if _, err := pr.Unmap(v); err != nil {
					t.Fatal(err)
				}
				audit(step, "unmap of "+r.Name)
				if r.Name == "file" {
					pr.MustMapFile(r, file, 0, memdefs.PermRead|memdefs.PermUser, true, r.Name)
				} else {
					pr.MustMapAnon(r, rwu, r.Name)
				}
			}
			// The template populates part of its address space before the
			// first fork: every fork then copies its private THP leaves,
			// and the containers' first writes break them copy-on-write.
			for _, w := range []struct {
				gva   memdefs.VAddr
				write bool
			}{
				{rTHP.Start, true}, {rTHP.Start + memdefs.HugePageSize2M, true},
				{rHeap.PageVA(0), true}, {rHeap.PageVA(1), true}, {rHeap.PageVA(2), false},
				{rData.PageVA(0), true}, {rData.PageVA(1), false}, {rFile.PageVA(0), false},
			} {
				c, err := k.HandleFault(tmpl.PID, tmpl.ProcVA(w.gva), w.write, memdefs.AccessData)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%d %t\n", c, false)
			}
			for i := 0; i < 3; i++ {
				fork(-1, tmpl, "c")
			}

			rng := NewRNG(777)
			regions := []kernel.Region{rFile, rData, rHeap, rTHP}
			for step := 0; step < 8000; step++ {
				// Occasionally fork another container mid-stream, from the
				// template or from a running container.
				if step%1500 == 1499 && len(procs) < 8 {
					fork(step, tmpl, "late")
				}
				if step%1300 == 1299 {
					fork(step, procs[rng.Intn(len(procs))], "forked")
				}
				// Occasionally retire a container (its TLB entries must
				// never leak into other processes' translations) and
				// replace it.
				if step%2100 == 2099 && len(procs) > 2 {
					victim := procs[rng.Intn(len(procs))]
					victim.Exit()
					for _, c := range m.Cores {
						c.MMU.FlushPCID(victim.PCID)
					}
					nn := procs[:0]
					for _, pr := range procs {
						if pr.PID != victim.PID {
							nn = append(nn, pr)
						}
					}
					procs = nn
					delete(ctxs, victim.PID)
					fork(step, tmpl, "replacement")
				}
				// Occasionally munmap + remap one container's heap, THP
				// region or read-only file mapping.
				if step%1700 == 1699 {
					remap(step, procs[rng.Intn(len(procs))], rHeap)
				}
				if step%2300 == 2299 {
					remap(step, procs[rng.Intn(len(procs))], rTHP)
				}
				if step%2500 == 2499 {
					remap(step, procs[rng.Intn(len(procs))], rFile)
				}
				// Occasionally mprotect a container's data segment down
				// and back up (forces divergence + entry rewrites).
				if step%1900 == 1899 {
					pr := procs[rng.Intn(len(procs))]
					if v, ok := pr.FindVMA(rData.Start); ok {
						if _, err := pr.Protect(v, memdefs.PermRead|memdefs.PermUser); err != nil {
							t.Fatal(err)
						}
						audit(step, "protect down")
						v2, _ := pr.FindVMA(rData.Start)
						if _, err := pr.Protect(v2, rwu); err != nil {
							t.Fatal(err)
						}
						audit(step, "protect up")
					}
				}
				pr := procs[rng.Intn(len(procs))]
				ctx := ctxs[pr.PID]
				r := regions[rng.Intn(len(regions))]
				gva := r.PageVA(rng.Intn(r.Pages)) + memdefs.VAddr(rng.Intn(64)*64)
				write := rng.Bool(0.25)
				if r.Name == "file" {
					write = false
				}
				va := pr.ProcVA(gva)
				core := m.Cores[rng.Intn(len(m.Cores))]

				ppn, _, _, err := core.MMU.Translate(ctx, va, write, memdefs.AccessData)
				if err != nil {
					t.Fatalf("step %d: translate pid %d gva %#x write=%v: %v", step, pr.PID, gva, write, err)
				}
				// Oracle: direct software walk, bypassing all caches.
				res := pr.Tables.Walk(gva)
				if !res.Complete {
					t.Fatalf("step %d: oracle walk incomplete after successful translate (gva %#x)", step, gva)
				}
				want := res.PPNFor(gva)
				if ppn != want {
					t.Fatalf("step %d: pid %d gva %#x write=%v: MMU says PPN %d, tables say %d (mode %v)",
						step, pr.PID, gva, write, ppn, want, mode)
				}
				// Writers must land on frames no other process maps for
				// a private VMA page — spot-check CoW isolation.
				if write && (r.Name == "heap" || r.Name == "thp") {
					for _, other := range procs {
						if other.PID == pr.PID {
							continue
						}
						ores := other.Tables.Walk(gva)
						if ores.Complete && ores.Leaf.Writable() && ores.PPNFor(gva) == ppn {
							t.Fatalf("step %d: pids %d and %d share a writable private frame %d",
								step, pr.PID, other.PID, ppn)
						}
					}
				}
			}
			audit(8000, "the run")

			fmt.Fprintf(h, "%+v free=%d\n", k.Stats(), m.Mem.FreeFrames())
			live := k.Processes()
			sort.Slice(live, func(a, b int) bool { return live[a].PID < live[b].PID })
			for _, pr := range live {
				pr.Tables.VisitLeaves(func(va memdefs.VAddr, lvl memdefs.Level, _ memdefs.PPN, _ int, e pgtable.Entry) {
					fmt.Fprintf(h, "%d %#x %d %#x\n", pr.PID, pr.ProcVA(va), lvl, uint64(e))
				})
			}
			if got := h.Sum64(); got != c.digest {
				t.Errorf("trajectory digest %#016x, pinned %#016x", got, c.digest)
			}
		})
	}
}

// digestOS hashes every fault's returned cycles (and whether it failed)
// on its way back to the MMU.
type digestOS struct {
	inner mmu.OS
	h     hash.Hash64
}

func (d *digestOS) HandleFault(pid memdefs.PID, va memdefs.VAddr, write bool, kind memdefs.AccessKind) (memdefs.Cycles, error) {
	c, err := d.inner.HandleFault(pid, va, write, kind)
	fmt.Fprintf(d.h, "%d %t\n", c, err != nil)
	return c, err
}

// TestNoLeaks runs a full deployment lifecycle — deploy, run, exit all
// containers, drop files — and verifies physical memory returns to the
// small kernel-owned residue (no frame leaks through fork/CoW/shared
// tables/MaskPages).
func TestNoLeaks(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeBaseline, kernel.ModeBabelFish} {
		p := sim.DefaultParams(mode)
		p.Cores = 2
		p.MemBytes = 512 << 20
		p.Quantum = 100_000
		m := sim.New(p)
		baseAllocated := m.Mem.Allocated() // zero page

		d, err := Deploy(m, MongoDB(), 0.2, 9)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, _, err := d.Spawn(j%2, uint64(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.PrefaultAll(); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(150_000); err != nil {
			t.Fatal(err)
		}
		for _, c := range d.Containers {
			c.Exit()
		}
		d.Template.Exit()
		for _, f := range []*kernel.File{d.Infra, d.Bin, d.Libs, d.Dataset} {
			f.Drop()
		}
		if got := m.Mem.Allocated(); got != baseAllocated {
			t.Errorf("[%v] %d frames leaked (allocated %d, base %d)",
				mode, got-baseAllocated, got, baseAllocated)
		}
	}
}

// TestOutOfMemoryIsGraceful: a machine too small for the deployment must
// surface errors, never panic or corrupt.
func TestOutOfMemoryIsGraceful(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked under memory pressure: %v", r)
		}
	}()
	p := sim.DefaultParams(kernel.ModeBabelFish)
	p.Cores = 1
	p.MemBytes = 24 << 20 // far too small for the deployment
	p.Quantum = 50_000
	m := sim.New(p)
	d, err := Deploy(m, MongoDB(), 0.5, 3)
	if err == nil {
		// Deploy may survive (lazy allocation); then running must fail
		// cleanly instead.
		if _, _, err := d.Spawn(0, 1); err == nil {
			if err := d.PrefaultAll(); err == nil {
				err = m.Run(200_000)
			}
			if err == nil {
				t.Skip("machine unexpectedly big enough")
			}
		}
	}
}
