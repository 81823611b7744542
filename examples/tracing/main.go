// Tracing example: watch BabelFish work at the level of translations.
// Runs two co-located FIO containers with telemetry and the span
// recorder attached, prints the last few recorded spans (scheduling
// quanta and any faults inside them), and summarizes where translations
// were served from the registry's MMU counters and the xlat.latency
// histogram — then does the same on the baseline so the difference (L2
// hits instead of walks) is visible side by side.
package main

import (
	"fmt"
	"log"
	"strings"

	"babelfish"
	"babelfish/internal/obs"
)

func main() {
	for _, arch := range []babelfish.Arch{babelfish.ArchBaseline, babelfish.ArchBabelFish} {
		name := "Baseline"
		if arch == babelfish.ArchBabelFish {
			name = "BabelFish"
		}
		m := babelfish.NewMachine(babelfish.Options{Arch: arch, Cores: 1})
		reg := m.EnableTelemetry(0)
		rec := obs.NewRecorder(4, 0, 4096)
		m.EnableObs(rec, -1)

		d, err := babelfish.DeployApp(m, babelfish.FIO, 0.25, 4)
		if err != nil {
			log.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, _, err := d.Spawn(0, uint64(10+j)); err != nil {
				log.Fatal(err)
			}
		}
		if err := d.PrefaultAll(); err != nil {
			log.Fatal(err)
		}
		if err := m.Run(150_000); err != nil {
			log.Fatal(err)
		}

		fmt.Printf("=== %s: %d spans recorded, last 4 shown ===\n", name, rec.Total())
		spans := rec.Spans()
		quanta := 0
		for _, s := range spans {
			if s.Kind == obs.KQuantum {
				quanta++
			}
		}
		for _, s := range spans[max(0, len(spans)-4):] {
			line := fmt.Sprintf("%12d core%d pid%-4d %-8s %8d cyc %s", s.Start, s.Core, s.PID, s.Kind, s.Dur, s.Detail)
			fmt.Println(strings.TrimRight(line, " "))
		}

		val := func(metric string) float64 {
			v, ok := reg.Value(metric)
			if !ok {
				log.Fatalf("metric %s not registered", metric)
			}
			return v
		}
		n := val("mmu.translations")
		fmt.Printf("summary: translations=%.0f (L1 %.0f, L2 %.0f, walk %.0f) faults=%.0f quanta=%d xlatCyc=%.0f faultCyc=%.0f\n",
			n, val("mmu.l1_hits"), val("mmu.l2_hits"), val("mmu.walks"), val("mmu.faults"),
			quanta, val("mmu.xlat_cycles"), val("mmu.fault_cycles"))
		h := m.XlatHist()
		fmt.Printf("xlat.latency: p50 %.0f  p99 %.0f  max %d cycles\n", h.Quantile(0.5), h.Quantile(0.99), h.Max())
		fmt.Printf("walk fraction: %.2f%%   mean translation cost: %.1f cycles\n\n",
			100*val("mmu.walks")/n, val("mmu.xlat_cycles")/n)
	}
	fmt.Println("BabelFish turns a slice of the baseline's page walks into L2 TLB hits;")
	fmt.Println("rerun with different apps/seeds via the babelfish package to explore.")
}
