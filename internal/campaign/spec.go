package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"grinch/internal/faults"
)

// Spec declares a campaign: an experiment kind, a reproducibility seed,
// a per-cell trial count, and the swept parameter axes. The grid is the
// cross product of the non-empty axes; empty axes are not swept and
// contribute a single zero value. Specs serialize to JSON for
// cmd/campaign input files and journal fingerprinting.
type Spec struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials,omitempty"`
	Budget uint64 `json:"budget,omitempty"`

	Platforms   []string `json:"platforms,omitempty"`
	MHz         []uint64 `json:"mhz,omitempty"`
	LineWords   []int    `json:"line_words,omitempty"`
	Flush       []bool   `json:"flush,omitempty"`
	ProbeRounds []int    `json:"probe_rounds,omitempty"`

	// FaultPlans is the structured-fault axis (internal/faults): each
	// named plan becomes one grid coordinate, so a single spec sweeps a
	// robustness curve — e.g. the same attack under increasing burst
	// intensity. Empty means no fault injection (a single unfaulted
	// coordinate).
	FaultPlans []faults.Plan `json:"fault_plans,omitempty"`
	// Retry, when set, gives every job's attack core a bounded
	// transient-failure retry policy. A pointer so older specs (and
	// their journal fingerprints) are unaffected.
	Retry *RetrySpec `json:"retry,omitempty"`
	// DeadlinePS bounds each job's simulated clock (channel virtual
	// time plus retry backoff) in picoseconds; 0 means no deadline.
	DeadlinePS uint64 `json:"deadline_ps,omitempty"`
	// ScalarPath runs every job on the attack core's scalar reference
	// pipeline instead of the batched one (see Job.ScalarPath). Omitted
	// from serialized specs when false, so existing journals keep their
	// fingerprints.
	ScalarPath bool `json:"scalar_path,omitempty"`
}

// RetrySpec is the job-level retry policy: how many times a transient
// channel failure is retried per observation and the simulated backoff
// charged before the first retry (doubling per attempt).
type RetrySpec struct {
	Attempts  int    `json:"attempts"`
	BackoffPS uint64 `json:"backoff_ps,omitempty"`
}

// MaxJobs bounds the expanded grid. Expansion materializes every job
// (Jobs, and the coordinator's shard table), so the bound is what
// keeps a spec from allocating without limit — or, with an int-wrapping
// axis product, from expanding to a negative grid. 2^20 jobs is 50×
// the largest benchmark grid (20,000 fleet jobs) and far above every
// preset at any practical trial count, while its expansion stays a few
// hundred MB.
const MaxJobs = 1 << 20

// Validate rejects specs the runner cannot expand meaningfully.
func (s Spec) Validate() error {
	if s.Kind == "" {
		return fmt.Errorf("campaign: spec %q has no kind", s.Name)
	}
	if s.Trials < 0 {
		return fmt.Errorf("campaign: spec %q has negative trials", s.Name)
	}
	if s.NumJobs() > MaxJobs {
		return fmt.Errorf("campaign: spec %q expands to more than %d jobs", s.Name, MaxJobs)
	}
	if s.Retry != nil && s.Retry.Attempts < 0 {
		return fmt.Errorf("campaign: spec %q has negative retry attempts", s.Name)
	}
	seen := map[string]bool{}
	for i, p := range s.FaultPlans {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("campaign: spec %q fault plan %d: %w", s.Name, i, err)
		}
		if p.Name == "" {
			return fmt.Errorf("campaign: spec %q fault plan %d needs a name (plans are grid-axis values)", s.Name, i)
		}
		if seen[p.Name] {
			return fmt.Errorf("campaign: spec %q has duplicate fault plan name %q", s.Name, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// normalized fills defaults: at least one trial per cell.
func (s Spec) normalized() Spec {
	if s.Trials == 0 {
		s.Trials = 1
	}
	return s
}

// NumJobs returns the size of the expanded grid, saturating at
// MaxJobs+1: the product is checked here, once, so an oversized spec
// can never wrap to a small or negative count.
func (s Spec) NumJobs() int {
	s = s.normalized()
	// n stays at most MaxJobs+1 and every axis is an in-memory slice,
	// so no product below can overflow.
	n := min(max(s.Trials, 0), MaxJobs+1)
	for _, axis := range []int{len(s.Platforms), len(s.MHz), len(s.LineWords),
		len(s.Flush), len(s.ProbeRounds), len(s.FaultPlans)} {
		n = min(n*max(axis, 1), MaxJobs+1)
	}
	return n
}

// Jobs expands the spec into its job list in canonical order: platforms
// outermost, then clocks, line sizes, flush, probe rounds, fault plans,
// and trials innermost. The order — and therefore every job's Index and
// Seed — is a pure function of the spec, which is what makes journals
// reusable and results independent of scheduling.
func (s Spec) Jobs() []Job {
	s = s.normalized()
	platforms := s.Platforms
	if len(platforms) == 0 {
		platforms = []string{""}
	}
	mhz := s.MHz
	if len(mhz) == 0 {
		mhz = []uint64{0}
	}
	lineWords := s.LineWords
	if len(lineWords) == 0 {
		lineWords = []int{0}
	}
	flush := s.Flush
	if len(flush) == 0 {
		flush = []bool{false}
	}
	probeRounds := s.ProbeRounds
	if len(probeRounds) == 0 {
		probeRounds = []int{0}
	}
	plans := s.FaultPlans
	if len(plans) == 0 {
		plans = []faults.Plan{{}}
	}
	var retry RetrySpec
	if s.Retry != nil {
		retry = *s.Retry
	}

	jobs := make([]Job, 0, s.NumJobs())
	idx := 0
	for _, pl := range platforms {
		for _, f := range mhz {
			for _, lw := range lineWords {
				for _, fl := range flush {
					for _, pr := range probeRounds {
						for _, plan := range plans {
							for t := 0; t < s.Trials; t++ {
								jobs = append(jobs, Job{
									Index: idx,
									Point: Point{
										Kind:       s.Kind,
										Platform:   pl,
										MHz:        f,
										LineWords:  lw,
										Flush:      fl,
										ProbeRound: pr,
										Fault:      plan.Name,
										Trial:      t,
									},
									Seed:       DeriveSeed(s.Seed, idx),
									Budget:     s.Budget,
									FaultPlan:  plan,
									Retry:      retry,
									DeadlinePS: s.DeadlinePS,
									ScalarPath: s.ScalarPath,
								})
								idx++
							}
						}
					}
				}
			}
		}
	}
	return jobs
}

// Fingerprint returns a short stable hash of the spec's canonical JSON.
// The journal stores it so a resume against a journal written for a
// different campaign fails loudly instead of silently skipping the
// wrong jobs.
func (s Spec) Fingerprint() string {
	b, err := json.Marshal(s.normalized())
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so a typo in
// an axis name ("probe_round" for "probe_rounds") cannot silently
// collapse a sweep to a single cell.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
