package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// overflowSpec multiplies to 2·MaxInt64 jobs, which wraps to -2 in
// unchecked int arithmetic.
const overflowSpec = `{"kind":"first-round","trials":9223372036854775807,"line_words":[1,2]}`

// TestSpecGridBound: a grid over MaxJobs — wrapping or not — is
// refused by ParseSpec and Run, never expanded.
func TestSpecGridBound(t *testing.T) {
	for _, data := range []string{
		overflowSpec,
		`{"kind":"first-round","trials":1099511627776}`,
		fmt.Sprintf(`{"kind":"first-round","trials":%d,"line_words":[1,2]}`, MaxJobs/2+1),
	} {
		if s, err := ParseSpec([]byte(data)); err == nil {
			t.Errorf("ParseSpec(%s) accepted a grid of NumJobs() = %d", data, s.NumJobs())
		}
	}
	edge := Spec{Kind: "toy", Trials: MaxJobs / 2, LineWords: []int{1, 2}}
	if err := edge.Validate(); err != nil || edge.NumJobs() != MaxJobs {
		t.Errorf("a grid of exactly MaxJobs: NumJobs() = %d, Validate() = %v", edge.NumJobs(), err)
	}

	huge := Spec{Kind: "toy", Trials: math.MaxInt64, LineWords: []int{1, 2}}
	if n := huge.NumJobs(); n <= MaxJobs {
		t.Errorf("NumJobs() = %d for a 2·MaxInt64 grid, want > MaxJobs", n)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Run panicked on an oversized grid: %v", r)
			}
		}()
		if _, err := Run(context.Background(), huge, toyExec, Options{}); err == nil {
			t.Fatal("Run accepted an oversized grid")
		}
	}()
}

// FuzzParseSpec: an accepted spec has a grid in [0, MaxJobs] that
// expands to exactly that many jobs with indices 0..n-1, and its
// fingerprint survives a marshal → ParseSpec round trip.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		n := s.NumJobs()
		if n < 0 || n > MaxJobs {
			t.Fatalf("accepted spec has NumJobs() = %d, outside [0, %d]", n, MaxJobs)
		}
		if n <= 4096 {
			jobs := s.Jobs()
			if len(jobs) != n {
				t.Fatalf("Jobs() expanded %d jobs, NumJobs() = %d", len(jobs), n)
			}
			for i, j := range jobs {
				if j.Index != i {
					t.Fatalf("job %d has index %d", i, j.Index)
				}
			}
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("re-parsing a marshalled accepted spec: %v\n%s", err, b)
		}
		if again.Fingerprint() != s.Fingerprint() {
			t.Fatalf("fingerprint changed over a round trip: %s → %s", s.Fingerprint(), again.Fingerprint())
		}
	})
}
