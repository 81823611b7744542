package experiments

import (
	"fmt"

	"babelfish/internal/fleet"
	"babelfish/internal/loadgen"
	"babelfish/internal/metrics"
	"babelfish/internal/workloads"
)

// loadRampLevels are the offered-load points of the ramp: fleet-wide
// requests per epoch, spanning idle through saturation so the sweep
// shows where each architecture's serve rate peels away from the
// offered line and queueing delay takes off.
var loadRampLevels = []float64{2, 8, 32, 128}

// LoadRampCell is one (architecture × offered-RPS) fleet run under the
// open-loop load generator: the request accounting plus the delay and
// latency quantiles at that operating point.
type LoadRampCell struct {
	Arch    string
	RPS     float64
	Offered uint64
	Served  uint64
	Dropped uint64
	// QDelayP50/P99 are admit-to-serve queueing delays in epochs; they
	// stay near zero until the node saturates, then grow with the
	// backlog — the open-loop signature a closed-loop driver can't show.
	QDelayP50 float64
	QDelayP99 float64
	LatP50    float64
	LatP99    float64
}

// LoadRampResult is the fig_loadramp sweep, cells indexed [arch][level].
type LoadRampResult struct {
	Archs []string
	Cells [][]LoadRampCell
}

// LoadRamp sweeps a small two-node MongoDB fleet across the offered-load
// levels under an open-loop constant-rate arrival stream, one cell per
// (architecture × RPS). Each cell builds its own cluster and its own
// arrival source, so cells are independent and results byte-identical
// at any Options.Jobs width; an unknown architecture name fails before
// any cell runs. Opt-in only (not part of RunAll): the fleet runs make
// it noticeably slower than the figure sweeps.
func LoadRamp(o Options, archs []string) (*LoadRampResult, error) {
	return alone(o, func(s *Suite, o Options) func() *LoadRampResult { return s.LoadRamp(o, archs) })
}

// LoadRamp declares the ramp's cells on s.
func (s *Suite) LoadRamp(o Options, archs []string) func() *LoadRampResult {
	if len(archs) == 0 {
		archs = []string{"baseline", "babelfish"}
	}
	params, ok := s.archParams(o, archs)
	if !ok {
		return nil
	}
	res := &LoadRampResult{Archs: archs}
	res.Cells = make([][]LoadRampCell, len(archs))
	for i, name := range archs {
		res.Cells[i] = make([]LoadRampCell, len(loadRampLevels))
		for j, lvl := range loadRampLevels {
			s.own.add(fmt.Sprintf("loadramp/%s/rps%g", name, lvl), func() error {
				cfg := fleet.DefaultConfig(params[i], workloads.MongoDB())
				cfg.Nodes = 2
				cfg.Containers = 4
				cfg.Scale = o.Scale
				cfg.Seed = o.Seed
				cfg.Epochs = 16
				cfg.EpochInstr = 8_000
				cfg.QueueCap = 32
				cfg.Load = loadgen.Split(loadgen.Constant{RPS: lvl}, cfg.Containers, cfg.Seed)
				cfg.Jobs = 1 // the plan engine owns the parallelism
				c, err := fleet.New(cfg)
				if err != nil {
					return err
				}
				if err := c.Run(); err != nil {
					return err
				}
				val := func(metric string) uint64 {
					v, _ := c.Registry().Value(metric)
					return uint64(v)
				}
				qd, _ := c.Registry().Hist("fleet.queue_delay")
				lat, _ := c.Registry().Hist("fleet.req_latency")
				res.Cells[i][j] = LoadRampCell{
					Arch:      name,
					RPS:       lvl,
					Offered:   val("fleet.req_offered"),
					Served:    val("fleet.req_served"),
					Dropped:   val("fleet.req_dropped"),
					QDelayP50: qd.Quantile(0.50),
					QDelayP99: qd.Quantile(0.99),
					LatP50:    lat.Quantile(0.50),
					LatP99:    lat.Quantile(0.99),
				}
				return nil
			})
		}
	}
	return func() *LoadRampResult { return res }
}

// String renders the offered-vs-served ramp per architecture.
func (r *LoadRampResult) String() string {
	t := metrics.NewTable(
		fmt.Sprintf("Open-loop load ramp: %d architectures x %d offered-RPS levels",
			len(r.Archs), len(r.Cells[0])),
		"arch", "rps", "offered", "served", "dropped", "qd50", "qd99", "lat50", "lat99")
	for i := range r.Cells {
		for _, c := range r.Cells[i] {
			t.Row(c.Arch, c.RPS, c.Offered, c.Served, c.Dropped,
				c.QDelayP50, c.QDelayP99, c.LatP50, c.LatP99)
		}
	}
	return t.String()
}
