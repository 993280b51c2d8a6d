package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/obs/metrics"
)

// Options configure a coordinator.
type Options struct {
	// DataDir is the persistence root (campaign.json, the campaign
	// journal and merged output per campaign; layout in store.go).
	// Empty runs memory-only: journals and restart recovery are
	// disabled, merged output still lands at the submit's Out/CSV
	// paths.
	DataDir string
	// LeaseTTL is how long a shard lease lives without a heartbeat;
	// 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// ShardSize is the default jobs-per-shard cap for submits that do
	// not set one; 0 means DefaultShardSize.
	ShardSize int
	// MaxInflightIngest caps concurrent result-ingest requests; excess
	// requests are shed with 429 + Retry-After so a flood of reporting
	// workers degrades into backoff instead of queue collapse. 0 means
	// DefaultMaxInflightIngest; negative disables shedding.
	MaxInflightIngest int
	// Now overrides the clock (tests inject a fake one to drive lease
	// expiry deterministically). Nil means the wall clock. The clock
	// steers only operator-side scheduling — lease expiry, status
	// uptime — never result or merge bytes.
	Now func() time.Time
	// Logf receives operator log lines; nil discards them.
	Logf func(format string, args ...any)
	// OnAllMerged, if set, is called (from a fresh goroutine, at most
	// once per transition) whenever every submitted campaign has
	// merged — cmd/campaignd's -exit-when-done hook.
	OnAllMerged func()
}

// DefaultLeaseTTL is generous against GC pauses and slow shards while
// still re-issuing a lost node's shard within seconds.
const DefaultLeaseTTL = 15 * time.Second

// DefaultMaxInflightIngest is far above what a healthy fleet holds
// open: each worker keeps at most one report in flight, and ingestion
// holds the server mutex only to dedupe and commit already encoded
// lines, so requests pile up only when the coordinator is overloaded.
// Hitting it means shedding is the right call.
const DefaultMaxInflightIngest = 256

// Server is the coordinator: campaign registry, shard lease manager,
// result ingester, and merger. It is an http.Handler; all state is
// guarded by mu (the API is low-rate control traffic — results arrive
// in batches — so a single mutex is the right tool).
type Server struct {
	opts Options
	now  func() time.Time
	mux  *http.ServeMux

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string // campaign IDs in submission order
	leases    map[string]*lease
	workers   map[string]*workerSeen
	// completedLeases remembers every lease ID whose Complete was
	// accepted, so a retried Complete (response lost after the commit)
	// acknowledges idempotently instead of 410ing the worker into
	// thinking it lost a shard it actually finished.
	completedLeases map[string]bool
	nextID          int
	nextLease       int
	started         time.Time

	// reg holds the coordinator's own instruments: the event counters
	// below and the per-shard ingestion-latency histograms. telemetry
	// stores the latest cumulative delta per worker. Both are
	// internally synchronized.
	reg       *metrics.Registry
	telemetry *metrics.Store

	leasesIssued    *metrics.Counter
	resultsIngested *metrics.Counter
	duplicates      *metrics.Counter
	reissues        *metrics.Counter
	// shed counts ingest requests refused by admission control. Like
	// ingestInflight it is touched outside mu, so admission never
	// queues behind ingestion; ingestInflight stays a plain atomic
	// because admission needs Add's return value.
	shed           *metrics.Counter
	ingestInflight atomic.Int64
}

type campaignState struct {
	id     string
	req    SubmitRequest
	fp     string
	jobs   int
	shards []*shardState
	merged bool
	// mergedJSONL is the merged canonical output, retained for the
	// output endpoint.
	mergedJSONL []byte
	mergeErr    string
	dir         string            // persistence dir, "" when memory-only
	journal     *campaign.Journal // nil when memory-only
}

type shardState struct {
	rng      ShardRange
	state    string // ShardPending | ShardLeased | ShardDone
	leaseID  string
	worker   string
	reissues int
	failed   int
	// lines holds each ingested job's canonical line
	// (campaign.CanonicalLine), indexed by job − rng.Start; nil means
	// not ingested yet. done counts the non-nil entries. The lines are
	// the shard's whole result state: the merge concatenates them.
	lines [][]byte
	done  int
	// encs sums the victim encryptions of ingested (and
	// journal-replayed) results; latMS observes each live-ingested
	// result's wall duration, which its canonical line does not carry.
	encs  uint64
	latMS *metrics.Histogram
}

type lease struct {
	id       string
	campaign string
	shard    int
	worker   string
	expiry   time.Time
}

type workerSeen struct {
	lastSeen time.Time
	leases   int
	results  int
}

// NewServer builds a coordinator and, when opts.DataDir is set,
// recovers every campaign found there (completed shards stay
// completed; mid-shard progress resumes from the campaign journals;
// fully complete campaigns re-merge idempotently).
func NewServer(opts Options) (*Server, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.ShardSize <= 0 {
		opts.ShardSize = DefaultShardSize
	}
	now := opts.Now
	if now == nil {
		now = time.Now //grinchvet:ignore wallclock lease expiry and status uptime are operator scheduling; merge bytes are clock-free
	}
	if opts.MaxInflightIngest == 0 {
		opts.MaxInflightIngest = DefaultMaxInflightIngest
	}
	reg := metrics.New()
	s := &Server{
		opts:            opts,
		now:             now,
		campaigns:       map[string]*campaignState{},
		leases:          map[string]*lease{},
		workers:         map[string]*workerSeen{},
		completedLeases: map[string]bool{},
		reg:             reg,
		telemetry:       metrics.NewStore(),
		leasesIssued:    reg.Counter("campaignd_leases_issued_total", "Shard leases granted."),
		resultsIngested: reg.Counter("campaignd_results_ingested_total", "Results accepted at ingestion (first copies only)."),
		duplicates:      reg.Counter("campaignd_duplicate_results_total", "Duplicate results discarded at ingestion."),
		reissues:        reg.Counter("campaignd_lease_reissues_total", "Expired leases whose shard returned to pending."),
		shed:            reg.Counter("campaignd_shed_total", "Ingest requests refused with 429 by overload admission control."),
	}
	s.started = s.now()
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaignd: creating data dir: %w", err)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.mux = s.buildMux()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Close releases the campaign journal file handles.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, id := range s.order {
		if c := s.campaigns[id]; c.journal != nil {
			errs = append(errs, c.journal.Close())
			c.journal = nil
		}
	}
	return errors.Join(errs...)
}

// recover rebuilds campaign state from the data directory.
func (s *Server) recover() error {
	dirs, err := listCampaignDirs(s.opts.DataDir)
	if err != nil {
		return fmt.Errorf("campaignd: scanning data dir: %w", err)
	}
	for _, name := range dirs {
		dir := filepath.Join(s.opts.DataDir, name)
		req, err := loadSubmit(dir)
		if os.IsNotExist(err) {
			// The Submit that made this directory never returned an ID.
			s.logf("skipping %s: no campaign.json", name)
			continue
		}
		if err != nil {
			return fmt.Errorf("campaignd: recovering %s: %w", name, err)
		}
		c, err := s.buildCampaign(name, req, dir)
		if err != nil {
			return fmt.Errorf("campaignd: recovering %s: %w", name, err)
		}
		s.campaigns[name] = c
		s.order = append(s.order, name)
		if n := campaignSeq(name); n >= s.nextID {
			s.nextID = n + 1
		}
		done := 0
		for _, sh := range c.shards {
			if sh.state == ShardDone {
				done++
			}
		}
		s.logf("recovered campaign %s (%s): %d jobs, %d/%d shards done", name, req.Spec.Name, c.jobs, done, len(c.shards))
		if done == len(c.shards) && !c.merged {
			if err := s.mergeLocked(c); err != nil {
				return fmt.Errorf("campaignd: re-merging recovered campaign %s: %w", name, err)
			}
		}
	}
	return nil
}

// campaignSeq parses the numeric suffix of a campaign ID ("c0007" →
// 7); unknown shapes return -1.
func campaignSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "c%d", &n); err != nil {
		return -1
	}
	return n
}

// buildCampaign expands and shards a submit request and, when
// persistence is on, opens the campaign journal and routes each record
// it holds to the shard containing its job index. Records carry no
// shard, so any shard size recovers them; a shard whose range the
// journal covers whole comes back done.
func (s *Server) buildCampaign(id string, req SubmitRequest, dir string) (*campaignState, error) {
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	shardSize := req.ShardSize
	if shardSize <= 0 {
		shardSize = s.opts.ShardSize
	}
	jobs := req.Spec.NumJobs()
	c := &campaignState{
		id:   id,
		req:  req,
		fp:   req.Spec.Fingerprint(),
		jobs: jobs,
		dir:  dir,
	}
	var prior map[int]campaign.Result // nil when memory-only
	if dir != "" {
		j, recs, err := campaign.OpenJournal(filepath.Join(dir, journalFile), req.Spec)
		if err != nil {
			return nil, err
		}
		c.journal, prior = j, recs
	}
	for _, rng := range Partition(jobs, shardSize) {
		sh := &shardState{rng: rng, state: ShardPending, lines: make([][]byte, rng.Len())}
		sh.latMS = s.reg.WallHistogram("campaignd_shard_job_ms",
			"Per-job wall duration at ingestion, milliseconds, by shard.",
			metrics.DurationMSBuckets,
			metrics.L("campaign", id), metrics.L("shard", fmt.Sprint(rng.Shard)))
		c.shards = append(c.shards, sh)
		// Walk the range in index order, so replay is deterministic,
		// re-encoding each record through the one line encoder.
		for i := rng.Start; i < rng.End; i++ {
			r, ok := prior[i]
			if !ok {
				continue
			}
			line, err := campaign.CanonicalLine(r)
			if err != nil {
				return nil, errors.Join(err, c.journal.Close())
			}
			sh.commit(i, line, r)
		}
		if sh.done == rng.Len() {
			sh.state = ShardDone
		}
	}
	return c, nil
}

// Submit registers a campaign and returns its ID. Exposed for
// in-process embedding (tests, cmd/campaignd's boot submit); the HTTP
// POST handler is a thin wrapper.
func (s *Server) Submit(req SubmitRequest) (SubmitResponse, error) {
	// Validate before touching disk: a rejected spec must leave no
	// campaign.json for the next boot's recovery to trip over.
	if err := req.Spec.Validate(); err != nil {
		return SubmitResponse{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("c%04d", s.nextID)
	dir := ""
	if s.opts.DataDir != "" {
		dir = filepath.Join(s.opts.DataDir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return SubmitResponse{}, fmt.Errorf("campaignd: creating campaign dir: %w", err)
		}
		if err := saveSubmit(dir, req); err != nil {
			return SubmitResponse{}, errors.Join(fmt.Errorf("campaignd: persisting submit: %w", err), os.RemoveAll(dir))
		}
	}
	c, err := s.buildCampaign(id, req, dir)
	if err != nil {
		if dir != "" {
			err = errors.Join(err, os.RemoveAll(dir))
		}
		return SubmitResponse{}, err
	}
	s.nextID++
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.logf("campaign %s (%s) submitted: %d jobs in %d shards", id, req.Spec.Name, c.jobs, len(c.shards))
	return SubmitResponse{ID: id, Jobs: c.jobs, Shards: len(c.shards)}, nil
}

// sweepLocked revokes expired leases, returning their shards to the
// pending pool with their ingested results intact. Called before every
// lease-sensitive operation; visit order is irrelevant (every expired
// lease is revoked) but sorted for stable logs.
func (s *Server) sweepLocked() {
	now := s.now()
	var expired []string
	for id, l := range s.leases { //grinchvet:ignore maporder keys are sorted below; every expired lease is revoked regardless of visit order
		if now.After(l.expiry) {
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	for _, id := range expired {
		l := s.leases[id]
		delete(s.leases, id)
		c := s.campaigns[l.campaign]
		sh := c.shards[l.shard]
		if sh.state == ShardLeased && sh.leaseID == id {
			sh.state = ShardPending
			sh.leaseID = ""
			sh.reissues++
			s.reissues.Inc()
			s.logf("lease %s (worker %s, %s %s) expired; shard returned to pending with %d/%d results kept",
				id, l.worker, l.campaign, sh.rng, sh.done, sh.rng.Len())
		}
	}
}

// Acquire grants the next pending shard (campaigns in submission
// order, shards in index order) to the worker, or reports no work.
func (s *Server) Acquire(worker string) LeaseResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	s.seenLocked(worker).leases++
	for _, id := range s.order {
		c := s.campaigns[id]
		if c.merged {
			continue
		}
		for _, sh := range c.shards {
			if sh.state != ShardPending {
				continue
			}
			l := &lease{
				id:       fmt.Sprintf("l%06d", s.nextLease),
				campaign: id,
				shard:    sh.rng.Shard,
				worker:   worker,
				expiry:   s.now().Add(s.opts.LeaseTTL),
			}
			s.nextLease++
			s.leases[l.id] = l
			s.leasesIssued.Inc()
			sh.state = ShardLeased
			sh.leaseID = l.id
			sh.worker = worker
			done := make([]int, 0, sh.done)
			for k, line := range sh.lines {
				if line != nil {
					done = append(done, sh.rng.Start+k)
				}
			}
			s.logf("lease %s: %s %s → worker %s (%d results already ingested)", l.id, id, sh.rng, worker, len(done))
			return LeaseResponse{Lease: &Lease{
				ID:         l.id,
				Campaign:   id,
				ShardRange: sh.rng,
				Spec:       c.req.Spec,
				DoneJobs:   done,
				TTLMS:      s.opts.LeaseTTL.Milliseconds(),
			}}
		}
	}
	return LeaseResponse{AllDone: s.allMergedLocked()}
}

func (s *Server) allMergedLocked() bool {
	for _, id := range s.order {
		if !s.campaigns[id].merged {
			return false
		}
	}
	return true
}

// seenLocked updates the worker directory.
func (s *Server) seenLocked(worker string) *workerSeen {
	w := s.workers[worker]
	if w == nil {
		w = &workerSeen{}
		s.workers[worker] = w
	}
	w.lastSeen = s.now()
	return w
}

// leaseErr classifies lease-validation failures for HTTP mapping.
type leaseErr struct {
	gone bool
	msg  string
}

func (e *leaseErr) Error() string { return e.msg }

// validLocked resolves a live lease after sweeping.
func (s *Server) validLocked(leaseID string) (*lease, *campaignState, *shardState, error) {
	s.sweepLocked()
	l, ok := s.leases[leaseID]
	if !ok {
		return nil, nil, nil, &leaseErr{gone: true, msg: fmt.Sprintf("lease %s is unknown or expired", leaseID)}
	}
	c := s.campaigns[l.campaign]
	sh := c.shards[l.shard]
	if sh.leaseID != l.id || sh.state != ShardLeased {
		return nil, nil, nil, &leaseErr{gone: true, msg: fmt.Sprintf("lease %s was superseded", leaseID)}
	}
	return l, c, sh, nil
}

// Heartbeat extends a live lease by one TTL.
func (s *Server) Heartbeat(leaseID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, _, _, err := s.validLocked(leaseID)
	if err != nil {
		return err
	}
	l.expiry = s.now().Add(s.opts.LeaseTTL)
	s.seenLocked(l.worker)
	return nil
}

// Ingest records a batch of results against a live lease, all or
// nothing. Duplicates (re-executions after a re-issue, or a retried
// batch after a dropped response) are discarded: results are pure
// functions of (spec, index), so the first ingested copy is as good as
// any.
//
// The batch is validated whole first (a live lease, every job in its
// shard's range with its seed in the grid, so the journal holds only
// records that campaign.OpenJournal accepts), then encoded outside the
// server mutex; under it the fresh lines are deduped and committed
// with one journal write.
func (s *Server) Ingest(leaseID string, results []campaign.Result) error {
	s.mu.Lock()
	_, c, sh, err := s.validLocked(leaseID)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	rng, seed := sh.rng, c.req.Spec.Seed // fixed for the shard's lifetime
	for _, r := range results {
		if !rng.Contains(r.Job) {
			return fmt.Errorf("campaignd: lease %s reported job %d outside %s", leaseID, r.Job, rng)
		}
		if want := campaign.DeriveSeed(seed, r.Job); r.Seed != want {
			return fmt.Errorf("campaignd: lease %s reported job %d with seed %d, the grid's is %d", leaseID, r.Job, r.Seed, want)
		}
	}
	lines := make([][]byte, len(results))
	for i, r := range results {
		if lines[i], err = campaign.CanonicalLine(r); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// The lease may have expired or been superseded while unlocked.
	l, c, sh, err := s.validLocked(leaseID)
	if err != nil {
		return err
	}
	fresh := make([]int, 0, len(results)) // indices into results
	batch := make([][]byte, 0, len(results))
	taken := make(map[int]bool, len(results))
	for i, r := range results {
		if sh.lines[r.Job-rng.Start] != nil || taken[r.Job] {
			continue
		}
		taken[r.Job] = true
		fresh = append(fresh, i)
		batch = append(batch, lines[i])
	}
	if c.journal != nil && len(batch) > 0 {
		if err := c.journal.AppendBatch(batch); err != nil {
			return err
		}
	}
	w := s.seenLocked(l.worker)
	l.expiry = s.now().Add(s.opts.LeaseTTL) // a result batch is as good as a heartbeat
	for _, i := range fresh {
		r := results[i]
		sh.commit(r.Job, lines[i], r)
		if r.DurationNS > 0 {
			sh.latMS.Observe(uint64(r.DurationNS) / 1e6)
		}
	}
	s.duplicates.Add(uint64(len(results) - len(fresh)))
	s.resultsIngested.Add(uint64(len(fresh)))
	w.results += len(fresh)
	return nil
}

// commit stores job's canonical line and folds its result into the
// shard's counts.
func (sh *shardState) commit(job int, line []byte, r campaign.Result) {
	sh.lines[job-sh.rng.Start] = line
	sh.done++
	if r.Failed {
		sh.failed++
	}
	sh.encs += r.Encryptions
}

// ApplyTelemetry installs a worker's cumulative metrics delta. Stale
// deltas (sequence number not beyond the last applied) are ignored, so
// retried batches and journal replays never double-count. Exposed for
// the HTTP handlers and tests.
func (s *Server) ApplyTelemetry(worker string, d metrics.Delta) bool {
	return s.telemetry.Apply(worker, d)
}

// admitIngest reserves one in-flight ingest slot, returning a release
// func and whether the request was admitted. A refused request was
// shed: the caller answers 429 + Retry-After and the client's backoff
// does the queueing the server declined to.
func (s *Server) admitIngest() (release func(), ok bool) {
	limit := s.opts.MaxInflightIngest
	if limit < 0 {
		return func() {}, true
	}
	if s.ingestInflight.Add(1) > int64(limit) {
		s.ingestInflight.Add(-1)
		s.shed.Inc()
		return nil, false
	}
	return func() { s.ingestInflight.Add(-1) }, true
}

// Shed returns how many ingest requests have been refused with 429.
func (s *Server) Shed() uint64 { return s.shed.Value() }

// Complete marks a leased shard done, verifying full coverage of its
// range, and merges the campaign when it was the last shard. Replays
// of an already-accepted completion (the response was lost after the
// commit) are acknowledged idempotently.
func (s *Server) Complete(leaseID string) error {
	s.mu.Lock()
	l, c, sh, err := s.validLocked(leaseID)
	if err != nil {
		replay := s.completedLeases[leaseID]
		s.mu.Unlock()
		if replay {
			return nil
		}
		return err
	}
	if sh.done < sh.rng.Len() {
		missing := sh.rng.Start
		for sh.lines[missing-sh.rng.Start] != nil {
			missing++
		}
		s.mu.Unlock()
		return fmt.Errorf("campaignd: lease %s completed %s with job %d missing", leaseID, sh.rng, missing)
	}
	delete(s.leases, leaseID)
	s.completedLeases[leaseID] = true
	sh.state = ShardDone
	sh.leaseID = ""
	s.seenLocked(l.worker)
	s.logf("shard done: %s %s by worker %s", c.id, sh.rng, l.worker)

	var mergeErr error
	allDone := true
	for _, other := range c.shards {
		if other.state != ShardDone {
			allDone = false
			break
		}
	}
	if allDone {
		mergeErr = s.mergeLocked(c)
	}
	notify := allDone && mergeErr == nil && s.allMergedLocked() && s.opts.OnAllMerged != nil
	s.mu.Unlock()
	if notify {
		go s.opts.OnAllMerged()
	}
	return mergeErr
}

// mergeLocked concatenates a fully executed campaign's stored lines,
// in shard order and job-index order within each shard, into the
// merged JSONL (always) and the submit's Out file (when set), and
// decodes them into the CSV file when one is requested — the
// byte-deterministic projection: identical to a single-process
// cmd/campaign run of the same spec.
func (s *Server) mergeLocked(c *campaignState) error {
	err := func() error {
		size := 0
		for _, sh := range c.shards {
			if sh.done < sh.rng.Len() {
				return fmt.Errorf("campaignd: merge of %s found %s incomplete (%d/%d jobs)", c.id, sh.rng, sh.done, sh.rng.Len())
			}
			for _, line := range sh.lines {
				size += len(line)
			}
		}
		merged := make([]byte, 0, size)
		for _, sh := range c.shards {
			for _, line := range sh.lines {
				merged = append(merged, line...)
			}
		}
		if c.req.Out != "" {
			if err := os.WriteFile(c.outPath(c.req.Out), merged, 0o666); err != nil {
				return err
			}
		}
		if c.req.CSV != "" {
			if err := c.writeCSV(); err != nil {
				return err
			}
		}
		c.mergedJSONL = merged
		return nil
	}()
	if err != nil {
		c.mergeErr = err.Error()
		return err
	}
	c.merged = true
	c.mergeErr = ""
	s.logf("campaign %s (%s) merged: %d jobs", c.id, c.req.Spec.Name, c.jobs)
	return nil
}

// outPath resolves a submit's output path: relative paths land in the
// campaign's persistence directory when there is one.
func (c *campaignState) outPath(path string) string {
	if c.dir != "" && !filepath.IsAbs(path) {
		return filepath.Join(c.dir, path)
	}
	return path
}

// writeCSV decodes the stored lines, in merge order, into the submit's
// CSV file.
func (c *campaignState) writeCSV() error {
	f, err := os.Create(c.outPath(c.req.CSV))
	if err != nil {
		return err
	}
	sink := &campaign.CSVSink{W: f}
	err = func() error {
		if err := sink.Begin(c.req.Spec, c.jobs); err != nil {
			return err
		}
		for _, sh := range c.shards {
			for _, line := range sh.lines {
				var r campaign.Result
				if err := json.Unmarshal(line, &r); err != nil {
					return fmt.Errorf("campaignd: decoding a stored line of %s: %w", c.id, err)
				}
				if err := sink.Write(r); err != nil {
					return err
				}
			}
		}
		return sink.Close()
	}()
	return errors.Join(err, f.Close())
}

// Statuses returns every campaign's status in submission order,
// without per-shard detail.
func (s *Server) Statuses() []CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.campaigns[id], false))
	}
	return out
}

// Status returns one campaign's status with shard detail.
func (s *Server) Status(id string) (CampaignStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	c, ok := s.campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	return s.statusLocked(c, true), true
}

func (s *Server) statusLocked(c *campaignState, shards bool) CampaignStatus {
	st := CampaignStatus{
		ID:          c.id,
		Name:        c.req.Spec.Name,
		Fingerprint: c.fp,
		State:       CampaignRunning,
		Jobs:        c.jobs,
		MergeError:  c.mergeErr,
	}
	if c.merged {
		st.State = CampaignMerged
	}
	var snap []metrics.Series
	if shards {
		snap = s.reg.Snapshot()
	}
	for _, sh := range c.shards {
		st.Done += sh.done
		st.Failed += sh.failed
		if shards {
			row := ShardStatus{
				ShardRange:  sh.rng,
				State:       sh.state,
				Worker:      sh.worker,
				Done:        sh.done,
				Reissues:    sh.reissues,
				Encryptions: sh.encs,
			}
			ser, ok := metrics.Find(snap, "campaignd_shard_job_ms",
				metrics.L("campaign", c.id), metrics.L("shard", fmt.Sprint(sh.rng.Shard)))
			if ok && ser.Count() > 0 {
				row.P50MS = ser.Quantile(0.50)
				row.P90MS = ser.Quantile(0.90)
				row.P99MS = ser.Quantile(0.99)
			}
			st.Shards = append(st.Shards, row)
		}
	}
	return st
}

// Output returns a merged campaign's canonical JSONL bytes.
func (s *Server) Output(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("campaignd: unknown campaign %q", id)
	}
	if !c.merged {
		return nil, fmt.Errorf("campaignd: campaign %s has not merged yet", id)
	}
	return c.mergedJSONL, nil
}
