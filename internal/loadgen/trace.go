package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Trace replays a recorded arrival schedule: one `epoch,container,requests`
// CSV row per admission burst. Traces are stateless — Arrivals is a pure
// lookup — so a single Trace can drive any number of cluster runs.
type Trace struct {
	name   string
	epochs map[int]map[int]int // epoch -> container -> requests
	maxCt  int
	maxEp  int
}

// LoadTrace reads a trace file from disk. The format is CSV with three
// integer fields `epoch,container,requests`; blank lines, `#` comments,
// and an optional literal `epoch,container,requests` header are
// ignored. Duplicate (epoch, container) rows accumulate; a sum that
// would overflow int is an error.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	defer f.Close()
	return ParseTrace(f, path)
}

// ParseTrace parses trace CSV from r; name labels errors and Name().
func ParseTrace(r io.Reader, name string) (*Trace, error) {
	t := &Trace{name: name, epochs: make(map[int]map[int]int), maxCt: -1}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || line == "epoch,container,requests" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("loadgen: %s:%d: want 3 fields epoch,container,requests, got %d", name, lineNo, len(fields))
		}
		vals := make([]int, 3)
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("loadgen: %s:%d: field %d: %v", name, lineNo, i+1, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("loadgen: %s:%d: field %d: negative value %d", name, lineNo, i+1, v)
			}
			vals[i] = v
		}
		ep, ct, n := vals[0], vals[1], vals[2]
		row := t.epochs[ep]
		if row == nil {
			row = make(map[int]int)
			t.epochs[ep] = row
		}
		if row[ct] > math.MaxInt-n {
			return nil, fmt.Errorf("loadgen: %s:%d: requests for epoch %d container %d overflow int", name, lineNo, ep, ct)
		}
		row[ct] += n
		if ct > t.maxCt {
			t.maxCt = ct
		}
		if ep > t.maxEp {
			t.maxEp = ep
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", name, err)
	}
	return t, nil
}

func (t *Trace) Name() string { return "trace(" + t.name + ")" }

// MaxContainer returns the highest container index referenced by the
// trace, or -1 for an empty trace. Callers validate it against the
// fleet's container count before replaying.
func (t *Trace) MaxContainer() int { return t.maxCt }

// MaxEpoch returns the last epoch with any arrivals (-1 if empty).
func (t *Trace) MaxEpoch() int {
	if len(t.epochs) == 0 {
		return -1
	}
	return t.maxEp
}

// Arrivals replays the recorded admissions for one epoch. Containers
// beyond len(out) are silently ignored (callers are expected to have
// validated MaxContainer).
func (t *Trace) Arrivals(epoch int, out []int) {
	for i := range out {
		out[i] = 0
	}
	for ct, n := range t.epochs[epoch] {
		if ct < len(out) {
			out[ct] += n
		}
	}
}
