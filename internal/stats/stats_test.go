package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || !almost(s.Mean, 2.5) || !almost(s.Median, 2.5) {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Median != 7 || s.Mean != 7 || s.StdDev != 0 || s.CI95() != 0 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestStdDevKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	// Sample standard deviation of this classic set is ≈2.138.
	if math.Abs(s.StdDev-2.13809) > 1e-4 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {75, 32.5},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); !almost(got, c.want) {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileBoundsQuick(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		pp := math.Mod(math.Abs(p), 100)
		sorted := append([]float64(nil), xs...)
		sortFloats(sorted)
		v := Percentile(sorted, pp)
		return v >= s.Min && v <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestSummarizeUint64(t *testing.T) {
	s := SummarizeUint64([]uint64{100, 200, 300})
	if s.N != 3 || !almost(s.Mean, 200) {
		t.Fatalf("summary = %+v", s)
	}
}

func TestMedianEvenOdd(t *testing.T) {
	if m := Summarize([]float64{1, 2, 3}).Median; !almost(m, 2) {
		t.Fatalf("odd median = %v", m)
	}
	if m := Summarize([]float64{1, 2, 3, 100}).Median; !almost(m, 2.5) {
		t.Fatalf("even median = %v", m)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := Summarize([]float64{1, 2, 3, 4})
	var big []float64
	for i := 0; i < 16; i++ {
		big = append(big, float64(1+i%4))
	}
	if Summarize(big).CI95() >= small.CI95() {
		t.Fatal("CI did not shrink with larger sample")
	}
}

func TestStringFormat(t *testing.T) {
	got := Summarize([]float64{1, 2, 3}).String()
	if got == "" {
		t.Fatal("empty string")
	}
}
