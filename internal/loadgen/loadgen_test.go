package loadgen

import (
	"math"
	"os"
	"strings"
	"testing"
)

func sumArrivals(src Source, epochs, containers int) (total int, perEpoch []int) {
	out := make([]int, containers)
	perEpoch = make([]int, epochs)
	for e := 0; e < epochs; e++ {
		src.Arrivals(e, out)
		for _, n := range out {
			perEpoch[e] += n
		}
		total += perEpoch[e]
	}
	return total, perEpoch
}

func shapeTotal(s Shape, epochs int) float64 {
	var t float64
	for e := 0; e < epochs; e++ {
		t += s.Total(e)
	}
	return t
}

// The carry accumulator must conserve offered load: integer admissions
// may trail the real-valued curve by at most the outstanding fraction.
func TestSplitConservesTotals(t *testing.T) {
	shapes := []Shape{
		Constant{RPS: 2.5},
		Ramp{Base: 1, Peak: 33, Epochs: 48},
		Diurnal{Base: 2, Peak: 20, Period: 24},
		Flash{Base: 3, Peak: 97.5, Start: 10, Len: 5},
	}
	for _, s := range shapes {
		const epochs, containers = 48, 7
		got, _ := sumArrivals(Split(s, containers, 42), epochs, containers)
		want := shapeTotal(s, epochs)
		// Admissions may trail the curve by at most the outstanding
		// fraction (one request, plus float slack) and never exceed it.
		if float64(got) > want+1e-6 || want-float64(got) > 1+1e-6 {
			t.Errorf("%s: admitted %d, offered %.2f (carry must keep them within 1)", s.Name(), got, want)
		}
	}
}

func TestFlashSpikeShape(t *testing.T) {
	f := Flash{Base: 2, Peak: 100, Start: 8, Len: 4}
	_, perEpoch := sumArrivals(Split(f, 5, 1), 20, 5)
	for e, n := range perEpoch {
		inSpike := e >= 8 && e < 12
		if inSpike && n < 99 {
			t.Errorf("epoch %d inside spike admitted %d, want ~100", e, n)
		}
		if !inSpike && n > 3 {
			t.Errorf("epoch %d outside spike admitted %d, want ~2", e, n)
		}
	}
}

func TestRampMonotone(t *testing.T) {
	r := Ramp{Base: 1, Peak: 50, Epochs: 32}
	for e := 1; e < 40; e++ {
		if r.Total(e) < r.Total(e-1) {
			t.Fatalf("ramp decreased at epoch %d: %f -> %f", e, r.Total(e-1), r.Total(e))
		}
	}
	if got := r.Total(31); got != 50 {
		t.Errorf("ramp peak: got %f, want 50", got)
	}
	if got := r.Total(100); got != 50 {
		t.Errorf("ramp hold: got %f, want 50", got)
	}
}

func TestDiurnalBounds(t *testing.T) {
	d := Diurnal{Base: 4, Peak: 16, Period: 24}
	if got := d.Total(0); math.Abs(got-4) > 1e-9 {
		t.Errorf("trough: got %f, want 4", got)
	}
	if got := d.Total(12); math.Abs(got-16) > 1e-9 {
		t.Errorf("crest: got %f, want 16", got)
	}
	for e := 0; e < 48; e++ {
		if v := d.Total(e); v < 4-1e-9 || v > 16+1e-9 {
			t.Fatalf("epoch %d out of bounds: %f", e, v)
		}
	}
}

// Two Sources with the same (shape, seed) must agree exactly, and a
// rewind to epoch 0 must replay the identical schedule — that is what
// lets bffleet -arch both reuse one Source for both cluster runs.
func TestSplitDeterministicAndResets(t *testing.T) {
	mk := func() Source { return Split(Flash{Base: 2.3, Peak: 41.7, Start: 5, Len: 3}, 6, 99) }
	a, b := mk(), mk()
	const epochs, containers = 16, 6
	outA := make([]int, containers)
	outB := make([]int, containers)
	var first [][]int
	for e := 0; e < epochs; e++ {
		a.Arrivals(e, outA)
		b.Arrivals(e, outB)
		for i := range outA {
			if outA[i] != outB[i] {
				t.Fatalf("epoch %d container %d: %d vs %d", e, i, outA[i], outB[i])
			}
		}
		first = append(first, append([]int(nil), outA...))
	}
	// Rewind and replay on the same Source.
	for e := 0; e < epochs; e++ {
		a.Arrivals(e, outA)
		for i := range outA {
			if outA[i] != first[e][i] {
				t.Fatalf("replay diverged at epoch %d container %d: %d vs %d", e, i, outA[i], first[e][i])
			}
		}
	}
}

func TestTraceReplayFidelity(t *testing.T) {
	const csv = `# comment line
epoch,container,requests

0,0,3
0,2,1
1,1,5
1,1,2
7,3,9
`
	tr, err := ParseTrace(strings.NewReader(csv), "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.MaxContainer(); got != 3 {
		t.Errorf("MaxContainer: got %d, want 3", got)
	}
	if got := tr.MaxEpoch(); got != 7 {
		t.Errorf("MaxEpoch: got %d, want 7", got)
	}
	out := make([]int, 4)
	tr.Arrivals(0, out)
	if out[0] != 3 || out[1] != 0 || out[2] != 1 || out[3] != 0 {
		t.Errorf("epoch 0: got %v", out)
	}
	tr.Arrivals(1, out)
	if out[1] != 7 { // duplicate rows accumulate
		t.Errorf("epoch 1 container 1: got %d, want 7", out[1])
	}
	tr.Arrivals(3, out)
	for i, n := range out {
		if n != 0 {
			t.Errorf("silent epoch 3 container %d: got %d, want 0", i, n)
		}
	}
}

func TestTraceParseErrors(t *testing.T) {
	bad := []string{
		"0,1",     // too few fields
		"0,1,2,3", // too many fields
		"a,1,2",   // non-integer epoch
		"0,-1,2",  // negative container
		"0,1,-2",  // negative requests
		"0,0,9223372036854775807\n0,0,9223372036854775807", // duplicate rows overflow
	}
	for _, csv := range bad {
		if _, err := ParseTrace(strings.NewReader(csv), "bad"); err == nil {
			t.Errorf("ParseTrace(%q): want error, got nil", csv)
		}
	}
	// The overflow error names the row that tipped the sum over.
	_, err := ParseTrace(strings.NewReader("0,0,9223372036854775807\n0,0,1"), "big")
	if err == nil || !strings.Contains(err.Error(), "big:2:") {
		t.Errorf("overflowing duplicate: got %v, want an error at big:2", err)
	}
}

// FuzzParseTrace: whatever ParseTrace accepts must replay as
// non-negative arrivals, and MaxEpoch/MaxContainer must bound every row.
func FuzzParseTrace(f *testing.F) {
	seed, err := os.ReadFile("testdata/trace.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add("0,0,9223372036854775807\n0,0,9223372036854775807")
	f.Add("epoch,container,requests\n3,1,0\n")
	f.Fuzz(func(t *testing.T, csv string) {
		tr, err := ParseTrace(strings.NewReader(csv), "fuzz")
		if err != nil {
			return
		}
		maxEp, maxCt := tr.MaxEpoch(), tr.MaxContainer()
		if (maxEp < 0) != (maxCt < 0) {
			t.Fatalf("MaxEpoch %d and MaxContainer %d disagree on emptiness", maxEp, maxCt)
		}
		// Container indices can be huge; replay into a bounded prefix.
		out := make([]int, min(maxCt+1, 64))
		for ep, row := range tr.epochs {
			if ep > maxEp {
				t.Fatalf("row at epoch %d beyond MaxEpoch %d", ep, maxEp)
			}
			for ct, n := range row {
				if ct > maxCt {
					t.Fatalf("row for container %d beyond MaxContainer %d", ct, maxCt)
				}
				if n < 0 {
					t.Fatalf("epoch %d container %d: %d requests", ep, ct, n)
				}
			}
			tr.Arrivals(ep, out)
			for ct, n := range out {
				if n < 0 {
					t.Fatalf("epoch %d container %d: %d arrivals", ep, ct, n)
				}
			}
		}
	})
}

func TestLoadTraceFile(t *testing.T) {
	tr, err := LoadTrace("testdata/trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxContainer() < 0 || tr.MaxEpoch() < 0 {
		t.Fatalf("testdata trace is empty")
	}
}
