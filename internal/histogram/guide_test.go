package histogram

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// searchLocate is the reference Locate: a binary search for the first cut
// >= v, with NaN in the last interval.
func searchLocate(cuts []float64, v float64) int {
	if math.IsNaN(v) {
		return len(cuts)
	}
	return sort.SearchFloat64s(cuts, v)
}

// probes returns the values worth checking against one cut set: the
// special values, every cut, its float64 neighbours and the midpoints
// between adjacent cuts, plus random values over and beyond the span.
func probes(cuts []float64, rng *rand.Rand) []float64 {
	vs := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i, c := range cuts {
		vs = append(vs, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		if i > 0 {
			vs = append(vs, cuts[i-1]/2+c/2)
		}
	}
	if len(cuts) > 0 {
		lo, hi := cuts[0], cuts[len(cuts)-1]
		for k := 0; k < 64; k++ {
			vs = append(vs, lo+(hi-lo)*(1.2*rng.Float64()-0.1))
		}
	}
	return vs
}

func checkLocate(t *testing.T, iv *Intervals, vs []float64) {
	t.Helper()
	for _, v := range vs {
		if got, want := iv.Locate(v), searchLocate(iv.Cuts, v); got != want {
			t.Fatalf("cuts %v: Locate(%v) = %d, binary search %d", iv.Cuts, v, got, want)
		}
	}
}

// TestLocateMatchesBinarySearch is the property test of the guide table:
// on cuts from FromSample and Merge — skewed, tiny, tied, spanning ±Inf —
// Locate answers exactly what sort.SearchFloat64s does.
func TestLocateMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	samplers := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = rng.Float64() * 1000
			}
			return s
		},
		"lognormal": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = math.Exp(4 * rng.NormFloat64())
			}
			return s
		},
		"clustered": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(rng.Intn(3))*1e6 + rng.Float64()
			}
			return s
		},
		"ties": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(rng.Intn(7))
			}
			return s
		},
		"infinities": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				switch rng.Intn(5) {
				case 0:
					s[i] = math.Inf(-1)
				case 1:
					s[i] = math.Inf(1)
				default:
					s[i] = rng.NormFloat64()
				}
			}
			return s
		},
		"signed-zeros": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = []float64{-1, math.Copysign(0, -1), 0, 1}[rng.Intn(4)]
			}
			return s
		},
		"extreme": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = []float64{-math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, 0, 1}[rng.Intn(5)]
			}
			return s
		},
	}
	for name, draw := range samplers {
		for _, n := range []int{1, 2, 3, 5, 40, 2000} {
			for _, q := range []int{1, 2, 3, 4, 25, 200} {
				iv := FromSample(draw(n), q)
				if err := iv.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkLocate(t, iv, probes(iv.Cuts, rng))
				other := FromSample(draw(n), q)
				m := Merge(iv, other)
				checkLocate(t, m, probes(m.Cuts, rng))
			}
		}
	}
	// Hand-picked degenerate structures, through the constructors.
	for _, cuts := range [][]float64{
		nil,
		{5},
		{math.Inf(-1)},
		{math.Inf(1)},
		{1, 2},
		{math.Inf(-1), math.Inf(1)},
		{math.Inf(-1), 3, math.Inf(1)},
		{math.Inf(-1), 3, 4, math.Inf(1)},
		{-math.MaxFloat64, 0, math.MaxFloat64},
		{0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64},
		{math.Copysign(0, -1), 1},
	} {
		iv := Merge(&Intervals{Cuts: cuts}, nil)
		checkLocate(t, iv, probes(cuts, rng))
		// A hand-built literal has no guide table and must agree too.
		checkLocate(t, &Intervals{Cuts: cuts}, probes(cuts, rng))
	}
	// The same edge cases at guideMinCuts cuts and more, where the
	// constructors build a table: ±Inf cuts clamp into the end buckets, and
	// spans with no finite positive scale fall back to the scan.
	steps := func(from, step float64, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = from + float64(i)*step
		}
		return s
	}
	for _, tc := range []struct {
		cuts  []float64
		table bool
	}{
		{steps(1, 1, guideMinCuts), true},
		{append(append([]float64{math.Inf(-1)}, steps(1, 1, guideMinCuts)...), math.Inf(1)), true},
		{append([]float64{math.Inf(-1)}, steps(-100, 0.5, guideMinCuts)...), true},
		{append(append([]float64{-math.MaxFloat64}, steps(1, 1, guideMinCuts)...), math.MaxFloat64), false},
		{steps(0, math.SmallestNonzeroFloat64, guideMinCuts+8), false},
		{steps(1, 1, guideMinCuts-1), false},
	} {
		iv := Merge(&Intervals{Cuts: tc.cuts}, nil)
		if got := len(iv.g.first) > 0; got != tc.table {
			t.Fatalf("%d cuts from %g to %g: table built = %v, want %v", len(tc.cuts), tc.cuts[0], tc.cuts[len(tc.cuts)-1], got, tc.table)
		}
		checkLocate(t, iv, probes(tc.cuts, rng))
	}
}

// FuzzLocate checks Locate against the binary search on cut sets built by
// FromSample from fuzzed sample bytes, probed at fuzzed and special values.
func FuzzLocate(f *testing.F) {
	f.Add([]byte{}, uint8(4), 1.5)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}, uint8(3), 0.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}, uint8(8), -2.0)
	f.Fuzz(func(t *testing.T, raw []byte, q uint8, v float64) {
		sample := make([]float64, 0, len(raw)/8)
		for len(raw) >= 8 {
			sample = append(sample, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		iv := FromSample(sample, int(q))
		if err := iv.Validate(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(sample))))
		checkLocate(t, iv, append(probes(iv.Cuts, rng), v))
		half := FromSample(sample[:len(sample)/2], int(q)/2+1)
		m := Merge(iv, half)
		checkLocate(t, m, append(probes(m.Cuts, rng), v))
	})
}
