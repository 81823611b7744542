package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestAttributeStacks(t *testing.T) {
	for _, c := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"module leaf", []string{"babelfish/internal/cache.(*Cache).Access", "babelfish/internal/cache.(*Hierarchy).Access"}, "cache"},
		{"math goes to its caller", []string{"math.pow", "math.Pow", "babelfish/internal/ycsb.zeta", "babelfish/internal/ycsb.NewZipf"}, "workloads"},
		{"allocation goes to its caller", []string{"runtime.mallocgc", "runtime.newobject", "babelfish/internal/kernel.(*Kernel).Fork", "babelfish/internal/container.(*Engine).Start"}, "kernel"},
		{"no module frame is runtime", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{"empty stack is runtime", nil, "runtime"},
		{"closure", []string{"babelfish/internal/fleet.(*Cluster).Step.func1", "babelfish/internal/par.(*Plan).Execute.func1"}, "fleet"},
		{"generic with module type arguments", []string{"slices.SortFunc[go.shape.[]babelfish/internal/kernel.VMA]", "babelfish/internal/pgtable.(*Tables).Walk"}, "walk"},
		{"generic module function", []string{"babelfish/internal/par.Map[go.shape.int,babelfish/internal/sim.Step]"}, "fleet"},
		{"translation", []string{"babelfish/internal/xlatpolicy.(*stack).Probe", "babelfish/internal/mmu.(*MMU).Translate"}, "translate"},
		{"dram", []string{"babelfish/internal/dram.(*DRAM).Access", "babelfish/internal/cache.(*Cache).Access"}, "dram"},
		{"benchmark harness", []string{"time.Now", "main.(*timedPort).Access", "babelfish/internal/mmu.(*MMU).walk"}, "bench"},
		{"facade", []string{"babelfish.NewMachine", "main.main"}, "sim"},
		{"unmapped module package", []string{"babelfish/internal/newpkg.F", "babelfish/internal/sim.(*Machine).Run"}, "other"},
		{"command package", []string{"babelfish/cmd/bfsim.run"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute(%q) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

func TestEveryMappedLayerIsReported(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range packageLayer {
		if !known[l] {
			t.Errorf("package %s maps to unreported layer %q", pkg, l)
		}
	}
}

// Minimal protobuf encoding, enough to build a synthetic CPU profile.
func pbVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field<<3|0))
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, field int, msg []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field<<3|2))
	b = binary.AppendUvarint(b, uint64(len(msg)))
	return append(b, msg...)
}

func pbPacked(b []byte, field int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, field, p)
}

func TestParseProfileAndShares(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"math.Pow", "babelfish/internal/ycsb.zeta", "runtime.gcBgMarkWorker",
		"babelfish/internal/cache.(*Cache).Access", opLabel, opPhase, "setup"}
	opLab := pbVarint(pbVarint(nil, 1, 9), 2, 10)
	setupLab := pbVarint(pbVarint(nil, 1, 9), 2, 11)
	var p []byte
	// Functions 1..4 name string indexes 5..8.
	for id := uint64(1); id <= 4; id++ {
		p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, id), 2, id+4))
	}
	// Location 1 holds an inlined pair: math.Pow inlined into zeta.
	loc1 := pbVarint(nil, 1, 1)
	loc1 = pbBytes(loc1, 4, pbVarint(nil, 1, 1))
	loc1 = pbBytes(loc1, 4, pbVarint(nil, 1, 2))
	p = pbBytes(p, 4, loc1)
	p = pbBytes(p, 4, pbBytes(pbVarint(nil, 1, 2), 4, pbVarint(nil, 1, 3)))
	p = pbBytes(p, 4, pbBytes(pbVarint(nil, 1, 3), 4, pbVarint(nil, 1, 4)))
	// Samples: values are (count, cpu ns); packed and unpacked forms.
	// Only the samples labelled phase=op count toward the shares.
	p = pbBytes(p, 2, pbBytes(pbPacked(pbPacked(nil, 1, 1), 2, 3, 30_000_000), 3, opLab))
	p = pbBytes(p, 2, pbBytes(pbPacked(pbVarint(nil, 1, 2), 2, 1, 10_000_000), 3, opLab))
	p = pbBytes(p, 2, pbBytes(pbPacked(pbPacked(nil, 1, 3), 2, 6, 60_000_000), 3, opLab))
	p = pbBytes(p, 2, pbBytes(pbPacked(pbPacked(nil, 1, 3), 2, 9, 90_000_000), 3, setupLab))
	p = pbBytes(p, 2, pbPacked(pbPacked(nil, 1, 2), 2, 5, 50_000_000))
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	prof, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) != 5 {
		t.Fatalf("%d samples, want 5", len(prof.samples))
	}
	if got := prof.samples[3].labels[opLabel]; got != "setup" {
		t.Errorf("label %s = %q, want setup", opLabel, got)
	}
	if got := prof.samples[0].stack; len(got) != 2 || got[0] != "math.Pow" || got[1] != "babelfish/internal/ycsb.zeta" {
		t.Errorf("inlined stack = %q", got)
	}
	// The unlabelled runtime sample counts at a fifth of its 50 ms; the
	// unlabelled cache sample is set-up and is left out.
	shares, n := layerShares(prof, 0.2)
	if n != 4 {
		t.Errorf("sample count %d, want 4", n)
	}
	want := map[string]float64{"workloads": 100 * 30.0 / 110, "runtime": 100 * 20.0 / 110, "cache": 100 * 60.0 / 110}
	total := 0.0
	for _, l := range layers {
		total += shares[l]
		if !near(shares[l], want[l]) {
			t.Errorf("share %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if !near(total, 100) {
		t.Errorf("shares sum to %v", total)
	}

	if _, err := parseProfile(gz.Bytes()[:10]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestOpMeterCountsOnlyOperations(t *testing.T) {
	b, out := &bench{}, &repOut{}
	var sink []byte
	if err := b.op(out, func() error { sink = make([]byte, 1<<20); return nil }); err != nil {
		t.Fatal(err)
	}
	b.meter = &opMeter{}
	sink = make([]byte, 8<<20) // set-up: outside the meter
	want := errTruncated
	if err := b.op(out, func() error { sink = make([]byte, 4<<20); return want }); err != want {
		t.Errorf("op returned %v, want %v", err, want)
	}
	_ = sink
	if len(out.opMS) != 2 || len(out.refMS) != 2 || out.refMS[0] <= 0 {
		t.Errorf("op recorded times %v and reference times %v", out.opMS, out.refMS)
	}
	if got := b.meter.allocBytes; got < 4<<20 || got >= 8<<20 {
		t.Errorf("metered %d bytes, want the operation's 4 MiB", got)
	}
}
