// Serverless example: an OpenFaaS-style deployment. A leading wave of
// Parse/Hash/Marshal containers warms the runtime image, then a measured
// wave runs on every core. Each container's `docker start` bring-up runs
// untimed ahead of its function, and the table reports the function's
// own execution time — the scenario behind the paper's FaaS results
// (function execution −10% dense / −55% sparse). `bfbench -exp bringup`
// times bring-up itself (paper: −8%).
package main

import (
	"fmt"
	"log"

	"babelfish"
	"babelfish/internal/metrics"
)

func main() {
	const (
		cores = 2
		scale = 0.5
	)

	for _, sparse := range []bool{false, true} {
		variant := "dense"
		if sparse {
			variant = "sparse"
		}
		t := metrics.NewTable(fmt.Sprintf("Functions (%s input): execution time in own cycles", variant),
			"function", "baseline", "babelfish", "reduction%")

		results := map[string][2]float64{}
		var names []string
		for _, arch := range []babelfish.Arch{babelfish.ArchBaseline, babelfish.ArchBabelFish} {
			m := babelfish.NewMachine(babelfish.Options{Arch: arch, Cores: cores})
			fg, err := babelfish.DeployServerless(m, sparse, scale, 11)
			if err != nil {
				log.Fatal(err)
			}
			// Leading wave: one container per function (cold start, not
			// measured).
			names = fg.FunctionNames()
			for j, name := range names {
				if _, _, err := fg.Spawn(name, j%cores, uint64(j)); err != nil {
					log.Fatal(err)
				}
			}
			if err := m.RunToCompletion(); err != nil {
				log.Fatal(err)
			}
			// Measured wave: three containers per core.
			type meas struct {
				name string
				idx  int
			}
			var tasks []meas
			for c := 0; c < cores; c++ {
				for j, name := range names {
					if _, _, err := fg.Spawn(name, c, uint64(100+c*7+j)); err != nil {
						log.Fatal(err)
					}
					tasks = append(tasks, meas{name, len(fg.Tasks) - 1})
				}
			}
			if err := m.RunToCompletion(); err != nil {
				log.Fatal(err)
			}
			for _, mm := range tasks {
				mean, ok := fg.Tasks[mm.idx].MeanOwn()
				if !ok {
					continue
				}
				r := results[mm.name]
				if arch == babelfish.ArchBaseline {
					r[0] += mean / float64(cores)
				} else {
					r[1] += mean / float64(cores)
				}
				results[mm.name] = r
			}
		}
		for _, name := range names {
			r := results[name]
			red := 0.0
			if r[0] > 0 {
				red = 100 * (r[0] - r[1]) / r[0]
			}
			t.Row(name, r[0], r[1], red)
		}
		fmt.Println(t)
	}
}
