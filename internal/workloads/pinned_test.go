package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/sim"
)

// pinnedSteps is how many steps of each stream TestGeneratorStreamsPinned
// hashes (a finite stream may end sooner).
const pinnedSteps = 20_000

// pinnedMachine is a one-core BabelFish machine with per-process ASLR
// (ASLR-HW), so a container's process VAs differ from its group VAs and
// the pinned streams cover the group-to-process translation.
func pinnedMachine() *sim.Machine {
	p := sim.DefaultParams(kernel.ModeBabelFish)
	p.Cores = 1
	p.MemBytes = 512 << 20
	p.Kernel.ASLR = kernel.ASLRHW
	p.MMU.ASLRHW = true
	return sim.New(p)
}

// pinnedStream names a generator and builds a fresh one on a fresh
// machine, so every build yields the same stream from its first step.
type pinnedStream struct {
	name string
	mk   func(t *testing.T) sim.Generator
}

func pinnedApp(spec func() *AppSpec) func(t *testing.T) sim.Generator {
	return func(t *testing.T) sim.Generator {
		s := spec()
		d, err := Deploy(pinnedMachine(), s, 0.2, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Spawn(0, 42); err != nil {
			t.Fatal(err)
		}
		return s.NewGen(d, d.Containers[0], 0, 7)
	}
}

// pinnedFaaS builds a function container's generator as Spawn schedules
// it (bring-up chained before the function), or the bring-up alone.
func pinnedFaaS(name string, sparse, bringUpOnly bool) func(t *testing.T) sim.Generator {
	return func(t *testing.T) sim.Generator {
		fg, err := DeployFaaS(pinnedMachine(), sparse, 0.2, 3)
		if err != nil {
			t.Fatal(err)
		}
		task, _, err := fg.Spawn(name, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if bringUpOnly {
			env, err := fg.Env(name, task.Proc)
			if err != nil {
				t.Fatal(err)
			}
			return NewBringUp(env, 5)
		}
		return task.Gen
	}
}

// stepsHash folds each step's fields into an FNV-64a hash.
func stepsHash(steps []sim.Step) uint64 {
	h := fnv.New64a()
	var b [8 + 1 + 1 + 8 + 1]byte
	for _, s := range steps {
		binary.LittleEndian.PutUint64(b[0:], uint64(s.VA))
		b[8] = 0
		if s.Write {
			b[8] = 1
		}
		b[9] = byte(s.Kind)
		binary.LittleEndian.PutUint64(b[10:], uint64(s.Think))
		b[18] = byte(s.Req)
		h.Write(b[:])
	}
	return h.Sum64()
}

// collectBatched drains up to n steps through NextBatch with a buffer of
// the given size.
func collectBatched(g sim.BatchGenerator, bufSize, n int) []sim.Step {
	out := make([]sim.Step, 0, n+bufSize)
	buf := make([]sim.Step, bufSize)
	for len(out) < n {
		k := g.NextBatch(buf)
		if k == 0 {
			break
		}
		out = append(out, buf[:k]...)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TestGeneratorStreamsPinned pins every generator's stream to a hash
// taken before the generators wrote steps into the caller's buffer and
// computed each page's address once per visit: no rewrite of the build
// path may move a step. It also checks that NextBatch, at several buffer
// sizes and behind an open RequestGate, yields exactly Next's stream.
func TestGeneratorStreamsPinned(t *testing.T) {
	streams := []pinnedStream{
		{"mongodb", pinnedApp(MongoDB)},
		{"arangodb", pinnedApp(ArangoDB)},
		{"httpd", pinnedApp(HTTPd)},
		{"graphchi", pinnedApp(GraphChi)},
		{"fio", pinnedApp(FIO)},
	}
	for _, sparse := range []bool{false, true} {
		form := "dense"
		if sparse {
			form = "sparse"
		}
		for _, fn := range faasFunctions {
			streams = append(streams, pinnedStream{fn.Name + "-" + form, pinnedFaaS(fn.Name, sparse, false)})
		}
	}
	streams = append(streams, pinnedStream{"bringup", pinnedFaaS("parse", false, true)})

	// Taken from the generators that built each request into a step
	// queue and recomputed the page address for every line.
	pins := map[string]uint64{
		"mongodb":        0xe81f0b25b9959dcf,
		"arangodb":       0x1f6ffeb635b4f2c3,
		"httpd":          0xf0279af4d78942eb,
		"graphchi":       0x7a39b6d744415933,
		"fio":            0x8394e737f90e9da6,
		"parse-dense":    0x3fd625b445af111d,
		"hash-dense":     0x4105d7fd89c55815,
		"marshal-dense":  0x0e056ca88e2baff3,
		"parse-sparse":   0x71cc2ac20ff31c3b,
		"hash-sparse":    0x038572292ed7ce4d,
		"marshal-sparse": 0x7620b623e6e215ef,
		"bringup":        0x4f78959c31f34f0f,
	}
	for _, ps := range streams {
		t.Run(ps.name, func(t *testing.T) {
			want := collect(t, ps.mk(t), pinnedSteps)
			if got := stepsHash(want); got != pins[ps.name] {
				t.Errorf("stream hash %#x over %d steps, pinned %#x", got, len(want), pins[ps.name])
			}
			for _, gated := range []bool{false, true} {
				for _, size := range []int{1, 7, 256} {
					g := ps.mk(t)
					if gated {
						gate := NewRequestGate(g)
						gate.SetTarget(math.MaxUint64)
						g = gate
					}
					bg, ok := g.(sim.BatchGenerator)
					if !ok {
						t.Fatalf("%T does not implement sim.BatchGenerator", g)
					}
					got := collectBatched(bg, size, pinnedSteps)
					if len(got) != len(want) {
						t.Fatalf("gated=%v buf=%d: %d steps, Next gave %d", gated, size, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("gated=%v buf=%d: step %d is %+v, Next gave %+v", gated, size, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}
