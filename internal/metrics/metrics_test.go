package metrics

import (
	"strings"
	"testing"
)

func TestMPKIAndReduction(t *testing.T) {
	if got := MPKI(50, 10000); got != 5 {
		t.Fatalf("MPKI = %v", got)
	}
	if got := MPKI(50, 0); got != 0 {
		t.Fatalf("MPKI div0 = %v", got)
	}
	if got := ReductionPct(200, 150); got != 25 {
		t.Fatalf("reduction = %v", got)
	}
	if got := ReductionPct(0, 10); got != 0 {
		t.Fatalf("reduction div0 = %v", got)
	}
	if got := Ratio(1, 0); got != 0 {
		t.Fatalf("ratio div0 = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Row("alpha", 42)
	tb.Row("b", 3.14159)
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	if !strings.Contains(out, "3.14") {
		t.Fatalf("float not formatted:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
}
