package campaignd

import (
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
	// DataDir is the persistence root (campaign.json + shard journals
	// + merged output per campaign). Empty runs memory-only: journals
	// and restart recovery are disabled, merged output still lands at
	// the submit's Out/CSV paths.
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
// open (ingestion is serialized on the server mutex, so in-flight
// requests pile up only when the coordinator is overloaded); hitting
// it means shedding is the right call.
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
	dir         string // persistence dir, "" when memory-only
}

type shardState struct {
	rng      ShardRange
	state    string // ShardPending | ShardLeased | ShardDone
	leaseID  string
	worker   string
	reissues int
	failed   int
	results  map[int]campaign.Result
	journal  *campaign.Journal // nil when memory-only
	// encs sums the victim encryptions of ingested (and
	// journal-replayed) results; latMS observes each live-ingested
	// result's wall duration before canonicalization strips it.
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
// completed; mid-shard progress resumes from the shard journals; fully
// complete campaigns re-merge idempotently).
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

// Close releases the shard journal file handles.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, id := range s.order {
		errs = append(errs, s.campaigns[id].closeJournals())
	}
	return errors.Join(errs...)
}

// closeJournals closes the campaign's open shard journals.
func (c *campaignState) closeJournals() error {
	var errs []error
	for _, sh := range c.shards {
		if sh.journal != nil {
			errs = append(errs, sh.journal.Close())
			sh.journal = nil
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

// buildCampaign expands and shards a submit request, opening (and
// replaying) shard journals when persistence is on. A shard whose
// journal already covers its whole range comes back done.
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
	for _, rng := range Partition(jobs, shardSize) {
		sh := &shardState{rng: rng, state: ShardPending, results: map[int]campaign.Result{}}
		sh.latMS = s.reg.WallHistogram("campaignd_shard_job_ms",
			"Per-job wall duration at ingestion, milliseconds, by shard.",
			metrics.DurationMSBuckets,
			metrics.L("campaign", id), metrics.L("shard", fmt.Sprint(rng.Shard)))
		c.shards = append(c.shards, sh)
		if dir == "" {
			continue
		}
		j, prior, err := campaign.OpenLog(shardJournalPath(dir, rng.Shard), shardJournalHeader{
			Campaign: id, Fingerprint: c.fp, Shard: rng.Shard, Start: rng.Start, End: rng.End,
		})
		if err != nil {
			c.closeJournals()
			return nil, err
		}
		sh.journal = j
		// Keep the in-range records, count failures and detect
		// completion by walking the range in index order
		// (deterministic, and validates coverage).
		complete := true
		for i := rng.Start; i < rng.End; i++ {
			r, ok := prior[i]
			if !ok {
				complete = false
				continue
			}
			r = r.Canonical()
			sh.results[i] = r
			if r.Failed {
				sh.failed++
			}
			sh.encs += r.Encryptions
		}
		if complete {
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
				id, l.worker, l.campaign, sh.rng, len(sh.results), sh.rng.Len())
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
			done := make([]int, 0, len(sh.results))
			for idx := range sh.results { //grinchvet:ignore maporder key collection; sorted on the next line
				done = append(done, idx)
			}
			sort.Ints(done)
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

// Ingest records a batch of results against a live lease. Duplicates
// (re-executions after a re-issue, or a retried batch after a dropped
// response) are discarded: results are pure functions of (spec,
// index), so the first ingested copy is as good as any.
func (s *Server) Ingest(leaseID string, results []campaign.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, _, sh, err := s.validLocked(leaseID)
	if err != nil {
		return err
	}
	w := s.seenLocked(l.worker)
	l.expiry = s.now().Add(s.opts.LeaseTTL) // a result batch is as good as a heartbeat
	for _, r := range results {
		if !sh.rng.Contains(r.Job) {
			return fmt.Errorf("campaignd: lease %s reported job %d outside %s", leaseID, r.Job, sh.rng)
		}
		// Latency must be read before Canonical strips it.
		wallNS := r.DurationNS
		r = r.Canonical()
		if _, dup := sh.results[r.Job]; dup {
			s.duplicates.Inc()
			continue
		}
		if sh.journal != nil {
			if err := sh.journal.Append(r); err != nil {
				return err
			}
		}
		sh.results[r.Job] = r
		if r.Failed {
			sh.failed++
		}
		sh.encs += r.Encryptions
		if wallNS > 0 {
			sh.latMS.Observe(uint64(wallNS) / 1e6)
		}
		s.resultsIngested.Inc()
		w.results++
	}
	return nil
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
	for i := sh.rng.Start; i < sh.rng.End; i++ {
		if _, ok := sh.results[i]; !ok {
			s.mu.Unlock()
			return fmt.Errorf("campaignd: lease %s completed %s with job %d missing", leaseID, sh.rng, i)
		}
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

// mergeLocked folds a fully executed campaign's shard results, in
// shard order and job-index order within each shard, into the merged
// JSONL (always) and the submit's Out/CSV files (when set) — the
// byte-deterministic projection: identical to a single-process
// cmd/campaign run of the same spec.
func (s *Server) mergeLocked(c *campaignState) error {
	var jsonlBuf deterministicBuffer
	sinks := []campaign.Sink{&campaign.JSONLSink{W: &jsonlBuf}}
	var closers []func() error
	addFile := func(path string, mk func(f *os.File) campaign.Sink) error {
		if path == "" {
			return nil
		}
		if c.dir != "" && !filepath.IsAbs(path) {
			path = filepath.Join(c.dir, path)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		sinks = append(sinks, mk(f))
		closers = append(closers, f.Close)
		return nil
	}
	if err := addFile(c.req.Out, func(f *os.File) campaign.Sink { return &campaign.JSONLSink{W: f} }); err != nil {
		return err
	}
	if err := addFile(c.req.CSV, func(f *os.File) campaign.Sink { return &campaign.CSVSink{W: f} }); err != nil {
		return err
	}

	err := func() error {
		for _, sink := range sinks {
			if err := sink.Begin(c.req.Spec, c.jobs); err != nil {
				return err
			}
		}
		for _, sh := range c.shards {
			for i := sh.rng.Start; i < sh.rng.End; i++ {
				r, ok := sh.results[i]
				if !ok {
					return fmt.Errorf("campaignd: merge of %s found job %d missing from %s", c.id, i, sh.rng)
				}
				for _, sink := range sinks {
					if err := sink.Write(r); err != nil {
						return err
					}
				}
			}
		}
		for _, sink := range sinks {
			if err := sink.Close(); err != nil {
				return err
			}
		}
		return nil
	}()
	for _, cl := range closers {
		if cerr := cl(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		c.mergeErr = err.Error()
		return err
	}
	c.merged = true
	c.mergeErr = ""
	c.mergedJSONL = jsonlBuf.b
	s.logf("campaign %s (%s) merged: %d jobs", c.id, c.req.Spec.Name, c.jobs)
	return nil
}

// deterministicBuffer is a minimal append-only io.Writer (bytes.Buffer
// without the unused surface).
type deterministicBuffer struct{ b []byte }

func (d *deterministicBuffer) Write(p []byte) (int, error) {
	d.b = append(d.b, p...)
	return len(p), nil
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
	}
	if c.merged {
		st.State = CampaignMerged
	}
	var snap []metrics.Series
	if shards {
		snap = s.reg.Snapshot()
	}
	for _, sh := range c.shards {
		st.Done += len(sh.results)
		st.Failed += sh.failed
		if shards {
			row := ShardStatus{
				ShardRange:  sh.rng,
				State:       sh.state,
				Worker:      sh.worker,
				Done:        len(sh.results),
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
