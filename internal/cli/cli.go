// Package cli is the command-line surface bfsim, bffleet and bfbench
// share: the flags all of them declare, the checks on those flags, the
// -arch and -app tables, the exit-status convention and the -series-out
// and -trace-out output helpers.
//
// Shared flags:
//
//	-jobs N               run the independent units of work (architectures,
//	                      fleet nodes, experiment cells) on N workers;
//	                      omitted = GOMAXPROCS, 1 = serial. Output is
//	                      identical at any width: results are replayed in
//	                      declaration order.
//	-core-shards N        step each machine's cores on up to N goroutines
//	                      with a deterministic quantum barrier (0 = classic
//	                      serial). Output is identical at any width >= 1;
//	                      sharded stepping yields to the classic scheduler
//	                      while telemetry or span recording is active.
//	-trace-out FILE       after the run, export the causal spans as Chrome
//	                      trace-event JSON for Perfetto, or as compact
//	                      JSONL when FILE ends in .jsonl.
//	-flight-recorder DIR  (bfsim, bffleet) write post-mortem bundles
//	                      (trace.json, trace.jsonl, metrics.prom,
//	                      audit.txt) here; each command names its triggers.
//	-flight-depth N       span-ring depth per recorder (0 = 4096); needs
//	                      -trace-out or -flight-recorder.
//
// All obs output is deterministic: the same flags rewrite byte-identical
// files, and leaving the flags off leaves the simulation untouched.
//
// Exit status is 0 on success, 1 on a runtime error or a failed -audit,
// and 2 on a usage mistake, which is reported as "tool: message"
// followed by the usage text.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"babelfish/internal/obs"
	"babelfish/internal/telemetry"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

// Command is one tool's flag set with the shared flags declared on it.
// The tool declares its own flags on the embedded FlagSet.
type Command struct {
	*flag.FlagSet
	Jobs        int
	CoreShards  int
	TraceOut    string
	FlightDir   string // -flight-recorder
	FlightDepth int

	tool string
}

// New returns the flag set of the named tool with the shared flags
// declared, plus -flight-recorder when recorder is set.
func New(tool string, recorder bool) *Command {
	c := &Command{FlagSet: flag.NewFlagSet(os.Args[0], flag.ContinueOnError), tool: tool}
	c.IntVar(&c.Jobs, "jobs", 0, "parallel workers (default GOMAXPROCS, 1 = serial); output is identical at any width")
	c.IntVar(&c.CoreShards, "core-shards", 0, "step each machine's cores on up to N goroutines with a deterministic quantum barrier (0 = classic serial); output is identical at any width >= 1")
	c.StringVar(&c.TraceOut, "trace-out", "", "export causal spans after the run (Chrome trace JSON; .jsonl for compact JSONL)")
	c.IntVar(&c.FlightDepth, "flight-depth", 0, "span-ring depth per recorder (0 = default)")
	if recorder {
		c.StringVar(&c.FlightDir, "flight-recorder", "", "write post-mortem bundles to this directory on an OOM kill, an -audit violation, or a fleet condemnation or lost container")
	}
	return c
}

// Parse parses args and checks the shared flags. When ok is false the
// tool must exit with status at once: 0 after -h, 2 after a mistake,
// which has already been reported with the usage text.
func (c *Command) Parse(args []string) (status int, ok bool) {
	if err := c.FlagSet.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0, false
		}
		return 2, false // the flag package has printed the error and usage
	}
	if err := c.Check(); err != nil {
		return c.UsageErr("%v", err), false
	}
	return 0, true
}

// Check returns the first mistake in the shared flags' parsed values.
func (c *Command) Check() error {
	switch {
	case c.Given("jobs") && c.Jobs <= 0:
		return fmt.Errorf("-jobs must be positive (omit the flag for GOMAXPROCS)")
	case c.CoreShards < 0:
		return fmt.Errorf("-core-shards must be non-negative (0 = classic serial stepping)")
	case c.FlightDepth < 0:
		return fmt.Errorf("-flight-depth must be non-negative")
	case c.Given("flight-depth") && c.TraceOut == "" && c.FlightDir == "":
		if c.Lookup("flight-recorder") == nil {
			return fmt.Errorf("-flight-depth has no effect without -trace-out")
		}
		return fmt.Errorf("-flight-depth has no effect without -trace-out or -flight-recorder")
	}
	return nil
}

// Given reports whether the named flag was set on the command line.
func (c *Command) Given(name string) bool {
	given := false
	c.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}

// Positive returns an error unless the -name flag's value v is a finite
// positive number.
func Positive(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("-%s must be a positive number", name)
	}
	return nil
}

// UsageErr reports a flag mistake with the usage text and returns the
// usage exit status, 2.
func (c *Command) UsageErr(format string, args ...any) int {
	fmt.Fprintf(c.Output(), c.tool+": "+format+"\n", args...)
	c.Usage()
	return 2
}

// Fail reports a runtime error and returns the failure exit status, 1.
// Tools return it from their run function so deferred cleanup (a CPU
// profile, open files) still happens.
func (c *Command) Fail(err error) int {
	fmt.Fprintf(c.Output(), "%s: %v\n", c.tool, err)
	return 1
}

// Arch resolves an -arch value to the architectures to run: "both" is
// the paper's baseline/babelfish pair; any other name must be in the
// xlatpolicy registry.
func Arch(name string) ([]string, error) {
	if name == "both" {
		return []string{"baseline", "babelfish"}, nil
	}
	if _, ok := xlatpolicy.Get(name); !ok {
		return nil, fmt.Errorf("unknown arch %q (want %s)", name, xlatpolicy.UsageList("both"))
	}
	return []string{name}, nil
}

// apps maps each -app name to its workload spec.
var apps = map[string]func() *workloads.AppSpec{
	"mongodb": workloads.MongoDB, "arangodb": workloads.ArangoDB,
	"httpd": workloads.HTTPd, "graphchi": workloads.GraphChi, "fio": workloads.FIO,
}

// App resolves an -app value to the constructor of its workload spec.
func App(name string) (func() *workloads.AppSpec, error) {
	spec, ok := apps[name]
	if !ok {
		return nil, fmt.Errorf("unknown app %q (want mongodb, arangodb, httpd, graphchi or fio)", name)
	}
	return spec, nil
}

// StreamSeries creates the -series-out file and streams s into it while
// the run is live: Prometheus text when path ends in .prom, JSON lines
// otherwise. The returned finish flushes the sink and closes the file.
func StreamSeries(path, tool string, s *telemetry.Sampler) (finish func() error, err error) {
	sink, f, err := telemetry.FileSink(path, tool)
	if err != nil {
		return nil, err
	}
	if err := s.SetSink(sink); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		err := s.FlushSink()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// WriteTrace writes the -trace-out file and reports it on w.
func WriteTrace(w io.Writer, path, tool string, streams []obs.Stream) error {
	if err := obs.WriteTraceFile(path, tool, streams); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace (schema v%d) written to %s\n", obs.TraceSchemaVersion, path)
	return nil
}
