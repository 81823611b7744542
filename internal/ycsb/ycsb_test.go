package ycsb

import (
	"math"
	"testing"
	"testing/quick"
)

func mkGen(t *testing.T, w Workload, records int, seed uint64) *Generator {
	t.Helper()
	g, err := New(Config{Workload: w, Records: records, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMixesSumToOne(t *testing.T) {
	for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF} {
		m, err := MixOf(w)
		if err != nil {
			t.Fatal(err)
		}
		sum := m.Read + m.Update + m.Insert + m.Scan + m.RMW
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("workload %c mix sums to %v", w, sum)
		}
	}
	if _, err := MixOf(Workload('Z')); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestOperationProportions(t *testing.T) {
	const n = 50_000
	cases := []struct {
		w      Workload
		op     Op
		lo, hi float64
	}{
		{WorkloadA, OpUpdate, 0.45, 0.55},
		{WorkloadB, OpRead, 0.93, 0.97},
		{WorkloadC, OpRead, 0.999, 1.001},
		{WorkloadD, OpInsert, 0.03, 0.07},
		{WorkloadE, OpScan, 0.93, 0.97},
		{WorkloadF, OpReadModifyWrite, 0.45, 0.55},
	}
	for _, c := range cases {
		g := mkGen(t, c.w, 10_000, 7)
		count := 0
		for i := 0; i < n; i++ {
			if g.Next().Op == c.op {
				count++
			}
		}
		frac := float64(count) / n
		if frac < c.lo || frac > c.hi {
			t.Errorf("workload %c: %v fraction %.3f outside [%.2f, %.2f]", c.w, c.op, frac, c.lo, c.hi)
		}
	}
}

func TestKeysInRangeQuick(t *testing.T) {
	f := func(seed uint64, wsel uint8) bool {
		ws := []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF}
		g, err := New(Config{Workload: ws[int(wsel)%len(ws)], Records: 1000, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			r := g.Next()
			if r.Key < 0 || r.Key >= g.Records() {
				return false
			}
			if r.Op == OpScan && (r.ScanLen < 1 || r.ScanLen > 100) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScrambledZipfianSkewedButSpread(t *testing.T) {
	g := mkGen(t, WorkloadC, 10_000, 3)
	counts := map[int]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	// Skew: some keys are far hotter than average.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/1000 {
		t.Errorf("hottest key only %d/%d — not skewed", max, n)
	}
	// Spread: the hot keys are not clustered at low indices (scrambling).
	lowHalf := 0
	for k, c := range counts {
		if k < 5000 {
			lowHalf += c
		}
	}
	frac := float64(lowHalf) / n
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("low-half mass %.2f — hot set not scrambled across keyspace", frac)
	}
}

func TestLatestDistributionFavoursNewKeys(t *testing.T) {
	g := mkGen(t, WorkloadD, 10_000, 5)
	newest := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Op == OpRead && r.Key >= g.Records()-100 {
			newest++
		}
	}
	if frac := float64(newest) / n; frac < 0.3 {
		t.Errorf("only %.2f of reads hit the newest 100 records", frac)
	}
}

func TestInsertGrowsBounded(t *testing.T) {
	g := mkGen(t, WorkloadD, 100, 9)
	for i := 0; i < 50_000; i++ {
		g.Next()
	}
	if g.Records() > 200 {
		t.Fatalf("records grew unbounded: %d", g.Records())
	}
	if g.Records() == 100 {
		t.Fatal("inserts never grew the keyspace")
	}
}

func TestDeterminism(t *testing.T) {
	a := mkGen(t, WorkloadA, 5000, 42)
	b := mkGen(t, WorkloadA, 5000, 42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("divergence at request %d", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Workload: WorkloadA, Records: 0}); err == nil {
		t.Error("zero records accepted")
	}
	if _, err := New(Config{Workload: Workload('x'), Records: 10}); err == nil {
		t.Error("bad workload accepted")
	}
}

// TestNewRejectsSkewOutsideUnitInterval: Gray et al.'s sampler needs
// 0 < theta < 1. theta = 1 sends most draws to the coldest item and NaN
// sends every draw to item 0, so New refuses them; 0 still selects the
// YCSB default 0.99.
func TestNewRejectsSkewOutsideUnitInterval(t *testing.T) {
	cases := []struct {
		name  string
		theta float64
		ok    bool
	}{
		{"default", 0, true},
		{"NaN", math.NaN(), false},
		{"negative", -0.5, false},
		{"one", 1, false},
		{"above-one", 1.5, false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(Config{Workload: WorkloadA, Records: 100, Theta: tc.theta})
			if tc.ok {
				if err != nil {
					t.Fatalf("theta %v rejected: %v", tc.theta, err)
				}
				if g.cfg.Theta != 0.99 {
					t.Fatalf("theta 0 defaulted to %v, want 0.99", g.cfg.Theta)
				}
				return
			}
			if err == nil {
				t.Fatalf("theta %v accepted", tc.theta)
			}
		})
	}
}
