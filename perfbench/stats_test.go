package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestSummarizeReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailP float64
	}{
		{10, 0}, {11, 0}, {20, 0}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := summarize(ramp(tc.n))
		if got.N != tc.n || got.TailP != tc.tailP {
			t.Errorf("n=%d: got p%g with N=%d, want p%g", tc.n, got.TailP, got.N, tc.tailP)
		}
		if got.TailP > 0 && beyond(tc.n, got.TailP) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", tc.n, got.TailP, beyond(tc.n, got.TailP))
		}
	}
	if m := summarize(ramp(101)).Median; m != 51 {
		t.Fatalf("median %g, want 51", m)
	}
}

func TestPercentileStatesWhetherItHasTenBeyond(t *testing.T) {
	if _, ok := percentile(ramp(999), 99); ok {
		t.Fatal("999 samples have only 9 beyond p99")
	}
	v, ok := percentile(ramp(1000), 99)
	if !ok || v < 989 || v > 991 {
		t.Fatalf("p99 of 1..1000 = %g (ok=%v)", v, ok)
	}
	if _, ok := percentile(ramp(100), 90); !ok {
		t.Fatal("100 samples have 10 beyond p90")
	}
}

func TestAnalyseLaneSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "child2", Start: 6, End: 9},
		{Name: "root", Start: 0, End: 10},
		{Name: "child1", Start: 1, End: 5},
		{Name: "grandchild", Start: 2, End: 3},
		{Name: "next", Start: 10, End: 11},
	}
	analyseLane(spans)
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] = s.Self
	}
	want := map[string]float64{"root": 3, "child1": 3, "grandchild": 1, "child2": 3, "next": 1}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("%s self %g, want %g", name, self[name], w)
		}
	}
}
