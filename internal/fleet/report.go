package fleet

import (
	"fmt"
	"strings"

	"babelfish/internal/telemetry"
)

// Report renders the run: configuration, event tallies, latency
// quantiles and the final fleet state. Deterministic — two runs with
// the same Config produce byte-identical reports at any Jobs width.
func (c *Cluster) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d nodes (%s, %d cores, %d MB), %d containers (%s, scale %g), %d epochs x %d instr, seed %d\n",
		c.cfg.Nodes, c.cfg.Params.MMU.Policy.Name, c.cfg.Params.Cores, c.cfg.Params.MemBytes>>20,
		c.cfg.Containers, c.cfg.Spec.Name, c.cfg.Scale,
		c.cfg.Epochs, c.cfg.EpochInstr, c.cfg.Seed)
	n := &c.tally
	fmt.Fprintf(&b, "faults:    crashes %d, restarts %d, partitions %d, heals %d\n",
		n[EvCrash], n[EvRestart], n[EvPartition], n[EvHeal])
	fmt.Fprintf(&b, "detector:  suspects %d, condemned %d, rejoins %d, heartbeat misses %d\n",
		n[EvSuspect], n[EvCondemn], n[EvRejoin], c.ctr.heartbeatMisses)
	fmt.Fprintf(&b, "scheduler: queued %d, placements %d, completed %d, refusals %d, sheds %d, fences %d, oom escalations %d, degradations %d, lost %d\n",
		n[EvQueued], n[EvPlaced], n[EvComplete], n[EvPlaceFail], n[EvShed],
		n[EvFence], n[EvOOMKill], n[EvDegraded], n[EvLost])
	if c.cfg.Load != nil {
		fmt.Fprintf(&b, "load:      shape %s, offered %d, admitted %d, served %d, dropped %d, backlog %d\n",
			c.cfg.Load.Name(), c.ctr.reqOffered, c.ctr.reqAdmitted,
			c.ctr.reqServed, c.ctr.reqDropped, c.queueDepth())
		histLine(&b, "queue delay", c.histQDelay, "epochs")
	}
	histLine(&b, "replace delay", c.histReplace, "epochs")
	histLine(&b, "node downtime", c.histDowntime, "epochs")
	histLine(&b, "req latency", c.histReqLat, "cycles")
	if c.cfg.NodeTelemetry {
		histLine(&b, "xlat latency", c.histXlat, "cycles")
	}
	fmt.Fprintf(&b, "final:     %d/%d nodes up, %d running, %d pending, %d lost; mean density %.3f containers/node; %d events\n",
		c.upCount(), c.cfg.Nodes, c.runningCount(), c.pendingCount(),
		int(n[EvLost]), c.Density(), len(c.events))
	return b.String()
}

// histLine renders one histogram's count/p50/p99/max summary.
func histLine(b *strings.Builder, label string, h *telemetry.Hist, unit string) {
	if h.Count() == 0 {
		fmt.Fprintf(b, "%-10s no samples\n", label+":")
		return
	}
	fmt.Fprintf(b, "%-10s count %d, p50 %.0f, p99 %.0f, max %d %s\n",
		label+":", h.Count(), h.Quantile(0.50), h.Quantile(0.99), h.Max(), unit)
}
