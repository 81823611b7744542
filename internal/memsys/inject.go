package memsys

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Mode selects what an injected fault does to the device's result.
type Mode int

const (
	// ModeDrop discards the result: a TLB/PWC hit becomes a miss (forcing
	// a re-walk or refetch), a delivered cache/DRAM line is detected as
	// corrupt and refetched. Drops are always absorbed by the machine —
	// they cost latency, never correctness.
	ModeDrop Mode = iota
	// ModePoison corrupts the surviving state instead of discarding it:
	// a hit TLB entry's identity tags are flipped in place (the entry can
	// never legitimately hit again, but it now claims an owner that does
	// not exist — exactly what AuditTLBs must catch). Only the TLB target
	// supports poison; drop-only devices reject it at parse time.
	ModePoison
)

func (m Mode) String() string {
	if m == ModePoison {
		return "poison"
	}
	return "drop"
}

// Target is a bitmask of memory-system injection points.
type Target uint

const (
	TargetTLB Target = 1 << iota
	TargetPWC
	TargetCache
	TargetDRAM
)

// TargetAll enables every injection point.
const TargetAll = TargetTLB | TargetPWC | TargetCache | TargetDRAM

var targetNames = map[string]Target{
	"tlb": TargetTLB, "pwc": TargetPWC, "cache": TargetCache, "dram": TargetDRAM,
	"all": TargetAll,
}

// ParseTargets parses a comma-separated target list ("tlb,cache", "all")
// into a bitmask.
func ParseTargets(s string) (Target, error) {
	var t Target
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		bit, ok := targetNames[strings.ToLower(part)]
		if !ok {
			return 0, fmt.Errorf("memsys: unknown injection target %q (want tlb, pwc, cache, dram or all)", part)
		}
		t |= bit
	}
	if t == 0 {
		return 0, fmt.Errorf("memsys: empty injection target list")
	}
	return t, nil
}

func (t Target) String() string {
	if t == 0 {
		return "none"
	}
	var names []string
	for name, bit := range targetNames {
		if name != "all" && t&bit != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// InjectConfig is the one fault-injection policy: the decision for event
// seq is a pure function of (InjectConfig, seq), so a run with the same
// seed and workload injects the same faults — chaos runs are replayable.
// Memory-system devices (Fire), fleet crash/partition schedules (Fire)
// and frame allocation (FailAlloc) all evaluate it.
type InjectConfig struct {
	// Seed perturbs the probabilistic coin flips.
	Seed uint64
	// Nth, when non-zero, injects on every Nth event (seq % Nth == 0).
	Nth uint64
	// Prob, when non-zero, injects each event with this probability,
	// decided by a hash of (Seed, seq).
	Prob float64
	// After suppresses injection for the first After events.
	After uint64
	// MaxFaults, when non-zero, caps the total injections.
	MaxFaults uint64
	// Mode selects drop (absorbed) or poison (must be caught by audit).
	Mode Mode
}

// Enabled reports whether this config can ever inject.
func (c InjectConfig) Enabled() bool { return c.Nth > 0 || c.Prob > 0 }

// Validate checks the policy's value ranges: Prob must be in [0, 1) (a
// NaN is rejected). Every other field is meaningful at any value, and a
// Seed or After without Nth or Prob is legal here, only idle.
func (c InjectConfig) Validate() error {
	if !(c.Prob >= 0 && c.Prob < 1) {
		return fmt.Errorf("injection probability %v is not in [0, 1)", c.Prob)
	}
	return nil
}

// Injector decides, per event, whether to inject a fault. Nth and Prob
// compose (either may fire), gated by After and capped by MaxFaults.
// Fire numbers the events itself: each device instance owns its
// injector and steps it from one goroutine, so the event sequence — and
// therefore the fault pattern — is deterministic. FailAlloc takes the
// sequence number from its caller instead (physmem's allocation count).
type Injector struct {
	cfg      InjectConfig
	seq      uint64
	injected atomic.Uint64
}

// NewInjector returns an injector with the given policy. A nil *Injector
// is valid and never fires.
func NewInjector(cfg InjectConfig) *Injector { return &Injector{cfg: cfg} }

// Fire advances the event sequence and reports whether this event takes a
// fault. Nil-safe: a nil injector never fires.
func (in *Injector) Fire() bool {
	if in == nil {
		return false
	}
	in.seq++
	return in.decide(in.seq)
}

// FailAlloc implements physmem.Injector: it reports whether allocation
// number seq fails, applying the same rule as Fire at the caller's
// sequence number. physmem calls it with the Memory's lock held, so
// allocations — even from concurrently stepped cores — are serialized
// here; Injected stays readable from any goroutine. Nil-safe.
func (in *Injector) FailAlloc(seq uint64) bool {
	if in == nil {
		return false
	}
	return in.decide(seq)
}

// decide is the injection rule for event seq; it counts a fault when it
// fires.
func (in *Injector) decide(seq uint64) bool {
	c := &in.cfg
	if seq <= c.After {
		return false
	}
	if c.MaxFaults > 0 && in.injected.Load() >= c.MaxFaults {
		return false
	}
	hit := c.Nth > 0 && seq%c.Nth == 0
	if !hit && c.Prob > 0 {
		// 53-bit uniform in [0,1) from the seeded hash of the sequence
		// number: independent of call interleaving.
		u := float64(splitmix64(c.Seed^seq)>>11) / (1 << 53)
		hit = u < c.Prob
	}
	if hit {
		in.injected.Add(1)
	}
	return hit
}

// Skip advances the event sequence by n without evaluating the fault
// policy. Fleets of injectors sharing one config use it to phase-stagger
// Nth-mode patterns across instances (node i skips i events at arm
// time, so every-Nth faults roll across the fleet instead of striking
// every member in the same epoch). Nil-safe.
func (in *Injector) Skip(n uint64) {
	if in != nil {
		in.seq += n
	}
}

// Mode returns the configured fault mode (drop for a nil injector).
func (in *Injector) Mode() Mode {
	if in == nil {
		return ModeDrop
	}
	return in.cfg.Mode
}

// Injected returns how many faults this injector has taken. Unlike device
// stats it is never reset: it counts the whole run.
func (in *Injector) Injected() uint64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// Seq returns how many events Fire has numbered (FailAlloc's sequence
// numbers come from its caller and do not advance it).
func (in *Injector) Seq() uint64 {
	if in == nil {
		return 0
	}
	return in.seq
}

// splitmix64 is the same avalanche mix the kernel's ASLR uses: every
// input bit affects every output bit, so consecutive sequence numbers
// give independent coin flips.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
