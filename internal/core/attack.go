package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// Config tunes the attack.
type Config struct {
	// MinObservations is the floor before convergence is accepted;
	// guards against an early accidental single candidate under
	// non-strict thresholds. Default 4, or 48 under a Threshold below
	// 1, where ratio decisions need a statistical sample.
	MinObservations uint64
	// Threshold is the appearance ratio a line needs to stay candidate
	// (1 = strict intersection, the paper's noise-free setting).
	// Default 1.
	Threshold float64
	// TotalBudget aborts the attack once the channel has performed this
	// many encryptions (0 = unlimited). The paper drops experiments
	// past 1M encryptions as impractical.
	TotalBudget uint64
	// Seed drives plaintext randomization.
	Seed uint64
	// Progress, when set, receives one event per finished segment
	// elimination (CLI verbose output).
	Progress ProgressFunc
	// Tracer, when set, receives the attack's internal trajectory as
	// typed events (internal/obs): one probe_observation plus one
	// candidate_update per encryption and one segment_recovered per
	// converged elimination. Nil (the default) disables tracing; the
	// hot path then pays a single nil check per observation.
	Tracer obs.Tracer
	// Metrics, when set, receives quantitative rollups (internal/obs/
	// metrics): per-observation and per-encryption counters, segment
	// outcome counters, and candidate-set shrinkage histograms, labeled
	// by cipher. Nil (the default) disables metering at the same cost
	// model as the nil tracer — one nil-check branch per emission.
	Metrics *metrics.Registry
	// Retry bounds the handling of transient channel failures (errors
	// exposing a Transient() bool method, e.g. faults.TransientError,
	// surfaced through probe.FallibleChannel). The zero policy disables
	// retries: the first channel error aborts the target.
	Retry RetryPolicy
	// Quarantine discards degenerate observations — an empty or
	// all-lines set under a fully-examined probe mask — before they
	// reach the eliminator. An empty set (a dropped probe window) would
	// otherwise eliminate every candidate under strict intersection;
	// an all-lines set carries no index information but still inflates
	// every line's presence ratio. Quarantined observations consume
	// budget (the victim encrypted) but not elimination statistics.
	Quarantine bool
	// MaxRestarts is how many times a direct (hypothesis-free) target
	// elimination may restart after exhausting its candidate set under
	// noise. Each restart discards the poisoned statistics and relaxes
	// the survival threshold by restartRelax (tolerating more false
	// absences). Restarts never apply to hypothesis-testing
	// eliminations, where exhaustion is the signal of a wrong parent
	// hypothesis. 0 disables restarts.
	MaxRestarts int
	// Batch selects whether elimination passes may prime batches
	// (BatchAuto, the default, does whenever the channel implements
	// probe.BatchChannel; BatchOff never primes, so every pass crafts
	// and collects one observation at a time). The two produce
	// byte-identical observations, traces and metrics — batching is
	// purely a throughput optimization.
	Batch BatchMode
	// SimDeadlinePS aborts the attack once its simulated clock — the
	// accrued retry backoff plus the channel's own virtual time when
	// the channel exposes SimPS() uint64 — reaches this many
	// picoseconds. 0 disables the deadline. Like TotalBudget this is a
	// deterministic bound: it never reads the wall clock.
	SimDeadlinePS uint64
}

// RetryPolicy bounds transient-channel-failure retries. Backoff is
// charged to the attacker's simulated clock only — deterministic, no
// sleeping — so retried runs stay byte-reproducible.
type RetryPolicy struct {
	// MaxAttempts is the retry cap per observation; 0 disables
	// retrying (the first failure aborts the target).
	MaxAttempts int
	// BackoffPS is the simulated backoff before retry n:
	// BackoffPS << min(n-1, 10) picoseconds (exponential, capped at
	// 1024× so a long retry chain cannot overflow the virtual clock).
	BackoffPS uint64
}

// backoff returns the simulated wait charged before the attempt-th
// retry (1-based).
func (p RetryPolicy) backoff(attempt int) uint64 {
	if p.BackoffPS == 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 10 {
		shift = 10
	}
	return p.BackoffPS << shift
}

// isTransient reports whether err marks a retryable channel failure.
// The check is duck-typed (any error exposing Transient() bool) so the
// attack core does not depend on the fault injector package.
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// relaxedMinObservations is the observation floor under a threshold
// below 1, whether configured (the MinObservations default) or reached
// by a restart's relaxation: ratio-based exhaustion and convergence
// decisions are meaningless without a statistical sample.
const relaxedMinObservations = 48

// maxObservationsPerTarget caps the encryptions spent on one (segment,
// hypothesis) elimination before giving up. It is high enough that
// TotalBudget, not this cap, normally decides when a saturated channel
// is abandoned (an 8-word line needs ~33k observations per segment at
// the cleanest probing round).
const maxObservationsPerTarget = 1 << 20

// restartRelax is the multiplicative threshold relaxation per restart.
// A relaxed threshold below 1 also raises the observation floor to
// relaxedMinObservations so ratio decisions have statistical backing.
const restartRelax = 0.9

// relaxThreshold applies one restart's relaxation, floored at 0.5 —
// below that a line present in half the observations would survive,
// and the elimination no longer distinguishes signal from coin flips.
func relaxThreshold(t float64) float64 {
	t *= restartRelax
	if t < 0.5 {
		t = 0.5
	}
	return t
}

// degenerate reports whether a fully-masked observation carries no
// usable elimination information: empty (a dropped probe window —
// destructive under strict intersection) or all-lines (uninformative,
// inflates every presence ratio).
func degenerate(set, mask probe.LineSet) bool {
	return set == 0 || set == mask
}

// confidence scores a converged elimination by the separation between
// the survivor's presence ratio and the strongest eliminated
// competitor's: 1 means the survivor appeared in every observation
// while every other line vanished; near 0 means the runner-up barely
// lost.
func confidence(elim *Eliminator, line, lines int) float64 {
	return max(elim.PresenceRatio(line)-runnerUp(elim, line, lines), 0)
}

// runnerUp returns the strongest presence ratio among the lines other
// than line.
func runnerUp(elim *Eliminator, line, lines int) float64 {
	var next float64
	for l := 0; l < lines; l++ {
		if l != line {
			next = max(next, elim.PresenceRatio(l))
		}
	}
	return next
}

// ProgressFunc observes attack progress: one call per segment whose
// elimination finished, successful or not.
type ProgressFunc func(cipher string, round, segment int, converged bool, line int, observations uint64)

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 1
	}
	if c.MinObservations == 0 {
		c.MinObservations = 4
		if c.Threshold < 1 {
			c.MinObservations = relaxedMinObservations
		}
	}
	return c
}

// ErrBudgetExceeded aborts an attack that passed Config.TotalBudget.
var ErrBudgetExceeded = errors.New("core: encryption budget exceeded")

// ErrNoConvergence marks a target whose candidate set never reached a
// single line (saturated observation channel).
var ErrNoConvergence = errors.New("core: candidate elimination did not converge")

// ErrSimDeadline aborts an attack whose simulated clock (channel
// virtual time plus accrued retry backoff) passed Config.SimDeadlinePS.
var ErrSimDeadline = errors.New("core: simulated deadline exceeded")

// channel is the observation channel shape over plaintext word W:
// probe.Channel is channel[uint64] by method set, and Channel128 is the
// bitutil.Word128 instance.
type channel[W any] interface {
	Collect(pt W, targetRound int) probe.LineSet
	Lines() int
	Encryptions() uint64
}

// maskedChannel, fallibleChannel and batchChannel (batch.go) are the
// optional channel capabilities (probe.MaskedChannel,
// probe.FallibleChannel and probe.BatchChannel for uint64 words),
// resolved once at attacker construction.
type maskedChannel[W any] interface {
	CollectMasked(pt W, targetRound int) (set, mask probe.LineSet)
}

type fallibleChannel[W any] interface {
	CollectErr(pt W, targetRound int) (probe.LineSet, error)
}

// target is one pinned S-box access as the engine sees it: how to craft
// plaintexts for it and how to read key candidates off its converged
// line. *TargetSpec, *TargetSpec128 and TargetSpecP implement it; the
// methods are documented there.
type target[W, RK any] interface {
	craft(r *rng.Source, rks []RK) W
	FeasibleLines(lineWords int) probe.LineSet
	CandidatesForLine(line, lineWords int) []uint8
	ParentSegments() [4]int
}

// cipherDesc is what the attack engine needs to know about one cipher;
// everything else — budget, deadline, retries, restarts, elimination,
// hypothesis passes and the recovery loop — is shared.
type cipherDesc[W, RK any] struct {
	// name labels traces, metrics, progress and partial results.
	name string
	// segments is the number of S-box segments per round key.
	segments int
	// keyRounds is how many consecutive round keys make the full key;
	// maxRound bounds the round passes the recovery loop may run.
	keyRounds, maxRound int
	// target builds the target for round key t, segment g.
	target func(t, g int) target[W, RK]
	// roundKey assembles round key t from one candidate per segment.
	roundKey func(t int, cands []uint8) RK
	// hypotheses reports whether wide-line ambiguity can be resolved by
	// hypothesis passes over the next round.
	hypotheses bool
	// pinShare is the cipher's worstPinShare (see confirmSpan).
	pinShare float64
	// work pools the batched refills' workspaces (*passWork[W]).
	work sync.Pool
}

// engine drives the GRINCH attack for one cipher over an observation
// channel. Attacker, Attacker128 and AttackerP are thin wrappers.
type engine[W, RK any] struct {
	desc     *cipherDesc[W, RK]
	ch       channel[W]
	masked   maskedChannel[W]
	fallible fallibleChannel[W]
	// batch is non-nil only under BatchAuto over a batch-capable
	// channel, until the channel refuses its first prime.
	batch     batchChannel[W]
	cfg       Config
	rng       *rng.Source
	lines     int
	lineWords int
	// meter holds the pre-resolved metrics instruments (zero when
	// Config.Metrics is nil).
	meter attackMeter
	// backoffPS is the simulated time charged by transient-failure
	// retries (RetryPolicy.BackoffPS accrual).
	backoffPS uint64
	// retries totals the transient-failure retries of every elimination.
	retries uint64
	// lastRound / lastStatuses record the most recent AttackRound pass's
	// per-segment outcomes, feeding the graceful recoveries'
	// PartialResult.
	lastRound    int
	lastStatuses []SegmentStatus
}

// init builds the engine in place, rejecting a channel whose line count
// does not divide the 16-entry table (see NewAttacker).
func (e *engine[W, RK]) init(desc *cipherDesc[W, RK], ch channel[W], cfg Config) error {
	lines := ch.Lines()
	if lines < 2 || 16%lines != 0 {
		return fmt.Errorf("core: channel exposes %d table lines; the attack needs 2..16 dividing 16", lines)
	}
	cfg = cfg.withDefaults()
	*e = engine[W, RK]{
		desc:      desc,
		ch:        ch,
		cfg:       cfg,
		rng:       rng.New(cfg.Seed),
		lines:     lines,
		lineWords: 16 / lines,
		meter:     newAttackMeter(cfg.Metrics, desc.name),
	}
	e.masked, _ = ch.(maskedChannel[W])
	e.fallible, _ = ch.(fallibleChannel[W])
	if cfg.Batch == BatchAuto {
		e.batch, _ = ch.(batchChannel[W])
	}
	return nil
}

// Encryptions returns the channel's total encryption count.
func (e *engine[W, RK]) Encryptions() uint64 { return e.ch.Encryptions() }

// Retries returns the transient-failure retries the attack has spent.
func (e *engine[W, RK]) Retries() uint64 { return e.retries }

// overBudget reports whether the total budget is exhausted.
func (e *engine[W, RK]) overBudget() bool {
	return e.cfg.TotalBudget > 0 && e.ch.Encryptions() >= e.cfg.TotalBudget
}

// SimPS returns the attack's simulated clock in picoseconds: the
// accrued retry backoff plus the channel's own virtual time when the
// channel exposes SimPS() uint64 (platform channels do).
func (e *engine[W, RK]) SimPS() uint64 {
	ps := e.backoffPS
	if s, ok := e.ch.(interface{ SimPS() uint64 }); ok {
		ps += s.SimPS()
	}
	return ps
}

// overDeadline reports whether the simulated deadline has passed.
func (e *engine[W, RK]) overDeadline() bool {
	return e.cfg.SimDeadlinePS > 0 && e.SimPS() >= e.cfg.SimDeadlinePS
}

// collect performs one observation, retrying transient channel
// failures under the configured RetryPolicy. It returns the observed
// set, the mask of lines actually examined, the number of recovered
// transient failures, and the terminal error once retries are
// exhausted, the failure is not transient, or the backoff pushed the
// simulated clock past the deadline.
func (e *engine[W, RK]) collect(pt W, round, segment int) (set, mask probe.LineSet, retries uint64, err error) {
	if e.masked != nil {
		set, mask = e.masked.CollectMasked(pt, round)
		return set, mask, 0, nil
	}
	full := probe.FullSet(e.lines)
	if e.fallible == nil {
		return e.ch.Collect(pt, round), full, 0, nil
	}
	for attempt := 0; ; attempt++ {
		s, cerr := e.fallible.CollectErr(pt, round)
		if cerr == nil {
			return s, full, retries, nil
		}
		if !isTransient(cerr) || attempt >= e.cfg.Retry.MaxAttempts {
			return 0, full, retries, cerr
		}
		retries++
		wait := e.cfg.Retry.backoff(attempt + 1)
		e.backoffPS += wait
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.Emit(obs.Event{
				Kind:    obs.KindRetry,
				Enc:     e.ch.Encryptions(),
				Cipher:  e.desc.name,
				Round:   round,
				Segment: segment,
				Attempt: attempt + 1,
				SimPS:   wait,
			})
		}
		if e.overDeadline() {
			return 0, full, retries, ErrSimDeadline
		}
	}
}

// progress emits a ProgressFunc event if one is configured.
func (e *engine[W, RK]) progress(round, segment int, converged bool, line int, obs uint64) {
	if e.cfg.Progress != nil {
		e.cfg.Progress(e.desc.name, round, segment, converged, line, obs)
	}
}

// traceObservation emits the per-encryption pair of events — the raw
// probe observation set and the candidate set cands it left behind,
// with the eliminator's observation count.
func traceObservation(tr obs.Tracer, enc uint64, cipher string, round, segment int, set, cands probe.LineSet, observations uint64) {
	tr.Emit(obs.Event{
		Kind:    obs.KindProbeObservation,
		Enc:     enc,
		Cipher:  cipher,
		Round:   round,
		Segment: segment,
		Lines:   uint64(set),
	})
	tr.Emit(obs.Event{
		Kind:         obs.KindCandidateUpdate,
		Enc:          enc,
		Cipher:       cipher,
		Round:        round,
		Segment:      segment,
		Lines:        uint64(cands),
		Survivors:    cands.Count(),
		EntropyBits:  obs.EntropyBits(cands.Count()),
		Observations: observations,
	})
}

// traceRecovered emits the segment_recovered terminal event for a
// converged elimination.
func traceRecovered(tr obs.Tracer, enc uint64, cipher string, round, segment, line int, observations uint64) {
	tr.Emit(obs.Event{
		Kind:         obs.KindSegmentRecovered,
		Enc:          enc,
		Cipher:       cipher,
		Round:        round,
		Segment:      segment,
		Line:         line,
		Observations: observations,
	})
}

// TargetOutcome is the result of attacking one segment under one
// crafting hypothesis.
type TargetOutcome struct {
	// Line is the converged table line (-1 if not converged).
	Line int
	// Candidates lists the key candidates consistent with Line: (v |
	// u<<1) key-bit pairs for GIFT (1, 2 or 4 entries depending on line
	// width), key nibbles for PRESENT.
	Candidates []uint8
	// Observations is the number of encryptions this elimination used.
	Observations uint64
	Converged    bool
	// Exhausted means every candidate was eliminated — the signature of
	// a wrong crafting hypothesis.
	Exhausted bool
	// Infeasible means the elimination converged on a line the pinned
	// target cannot produce: a noise line outlasted every other line by
	// chance, which also indicates a wrong hypothesis.
	Infeasible bool
	// Restarts is how many threshold-relaxing restarts the elimination
	// consumed (Config.MaxRestarts; direct targets only).
	Restarts int
	// Retries counts transient channel failures recovered under the
	// retry policy.
	Retries uint64
	// Quarantined counts degenerate observations discarded before the
	// eliminator (Config.Quarantine).
	Quarantined uint64
	// Confidence scores a converged elimination in [0,1]: the
	// survivor's presence-ratio separation from the strongest
	// eliminated competitor (0 when not converged).
	Confidence float64
	// ChannelErr is the terminal channel failure that aborted the
	// elimination: retries exhausted, a non-transient error, or
	// ErrSimDeadline. Nil otherwise.
	ChannelErr error
}

// attackTarget runs AttackTarget's Steps 1-4 for round key t, segment
// g. It optionally confirms a convergence by persistence (see eliminate)
// and, for direct (hypothesis-free) targets, restarts an exhausted
// elimination up to Config.MaxRestarts times with a relaxed survival
// threshold: under bursty noise a false absence on the true line
// poisons a strict intersection permanently, and the only recovery is
// to discard the statistics and tolerate more absences.
// Hypothesis-testing eliminations never restart — there, exhaustion is
// the signal that the parent hypothesis is wrong.
func (e *engine[W, RK]) attackTarget(spec target[W, RK], t, g int, rks []RK, confirm bool) TargetOutcome {
	threshold := e.cfg.Threshold
	minObs := e.cfg.MinObservations
	out := e.eliminate(spec, t, g, rks, confirm, threshold, minObs)
	for out.Exhausted && !confirm && out.ChannelErr == nil &&
		out.Restarts < e.cfg.MaxRestarts && !e.overBudget() && !e.overDeadline() {
		threshold = relaxThreshold(threshold)
		if threshold < 1 && minObs < relaxedMinObservations {
			minObs = relaxedMinObservations
		}
		restarts := out.Restarts + 1
		e.meter.restarts.Inc()
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.Emit(obs.Event{
				Kind:      obs.KindTargetRestarted,
				Enc:       e.ch.Encryptions(),
				Cipher:    e.desc.name,
				Round:     t,
				Segment:   g,
				Attempt:   restarts,
				Threshold: threshold,
			})
		}
		prev := out
		out = e.eliminate(spec, t, g, rks, confirm, threshold, minObs)
		out.Restarts = restarts
		out.Observations += prev.Observations
		out.Retries += prev.Retries
		out.Quarantined += prev.Quarantined
	}
	return out
}

// eliminate is one elimination pass: craft plaintexts, collect probes
// (with retries), fold observations in, and stop on convergence,
// exhaustion, infeasibility, budget, deadline, or channel failure. When
// confirm is set, a convergence must additionally persist as the sole
// candidate for an adaptively-chosen number of extra observations
// before it is believed — a noise line can survive every observation by
// chance and fake a convergence under a wrong crafting hypothesis.
func (e *engine[W, RK]) eliminate(spec target[W, RK], t, g int, rks []RK, confirm bool, threshold float64, minObs uint64) TargetOutcome {
	var elim Eliminator
	elim.Reset(e.lines, threshold)
	feasible := spec.FeasibleLines(e.lineWords)
	full := probe.FullSet(e.lines)
	startEnc := e.ch.Encryptions()
	out := TargetOutcome{Line: -1}
	var confirmLeft uint64
	confirming := false

	var src pass[W, RK]
	src.begin(e, spec, t, g, rks)

	// encUpper tracks an upper bound on the channel's encryption counter
	// without the per-observation interface call behind overBudget():
	// each completed iteration consumed exactly one committed encryption
	// plus at most `retries` retried ones (channels that fail before
	// encrypting make this an overestimate, never an underestimate). The
	// authoritative counter is only consulted once the bound reaches the
	// budget, so the stopping point is identical to checking it always.
	encUpper := startEnc
	budget := e.cfg.TotalBudget

	// tries bounds loop iterations rather than eliminator observations:
	// quarantined observations consume budget (the victim encrypted)
	// without advancing the eliminator, and must not loop forever.
	for tries := uint64(0); tries < maxObservationsPerTarget &&
		(budget == 0 || encUpper < budget || !e.overBudget()); tries++ {
		if e.overDeadline() {
			out.ChannelErr = ErrSimDeadline
			break
		}
		set, mask, retries, err := src.next()
		out.Retries += retries
		encUpper += 1 + retries
		if err != nil {
			out.ChannelErr = err
			break
		}
		if e.cfg.Quarantine && mask == full && degenerate(set, mask) {
			out.Quarantined++
			continue
		}
		elim.ObserveMasked(set, mask)
		// One candidate computation per observation serves the trace,
		// the exhaustion check and the convergence check: below a
		// threshold of 1 it is a loop over the lines.
		cands := elim.Candidates()
		if e.cfg.Tracer != nil {
			traceObservation(e.cfg.Tracer, e.ch.Encryptions(), e.desc.name, t, g, set, cands, elim.Observations())
		}

		// Under strict intersection an empty candidate set is
		// definitive at any point; with a tolerant threshold it is only
		// meaningful once enough observations have accumulated.
		if cands == 0 && (threshold == 1 || elim.Observations() >= minObs) {
			out.Exhausted = true
			break
		}
		line, ok := elim.converged(cands, minObs)
		if !ok {
			confirming = false
			continue
		}
		if !feasible.Contains(line) {
			out.Infeasible = true
			break
		}
		if !confirm {
			out.Line = line
			out.Converged = true
			break
		}
		if !confirming {
			confirming = true
			confirmLeft = e.confirmSpan(&elim, line)
		}
		if confirmLeft == 0 {
			out.Line = line
			out.Converged = true
			break
		}
		confirmLeft--
	}
	src.finish()
	if out.Converged {
		out.Candidates = spec.CandidatesForLine(out.Line, e.lineWords)
		out.Confidence = confidence(&elim, out.Line, e.lines)
		if e.cfg.Tracer != nil {
			traceRecovered(e.cfg.Tracer, e.ch.Encryptions(), e.desc.name, t, g, out.Line, elim.Observations())
		}
	}
	out.Observations = elim.Observations()
	// The observation counter is flushed per target like the retry and
	// quarantine counters: one atomic add instead of one per probe.
	e.meter.observations.Add(elim.Observations())
	e.retries += out.Retries
	e.meter.retries.Add(out.Retries)
	e.meter.quarantined.Add(out.Quarantined)
	e.meter.segmentDone(elim.Observations(), uint64(elim.Candidates().Count()),
		e.ch.Encryptions()-startEnc, out.Converged, out.Exhausted, out.Infeasible)
	return out
}

// worstPinShare is the largest fraction of crafted inputs for which a
// wrongly-hypothesized parent still yields the pinned output bit: over
// all output bits j and input differences e ≠ 0, the share of x in
// {SBox[x] bit j = 1} with SBox[x⊕e] bit j = 1. It bounds how much
// residual signal a wrong hypothesis can leave on the expected line, and
// therefore how slowly a fake survivor can die.
var worstPinShare = computeWorstPinShare()

func computeWorstPinShare() float64 {
	best := 0
	for j := 0; j < 4; j++ {
		list := sboxBitList(j)
		for e := uint8(1); e < 16; e++ {
			hits := 0
			for _, x := range list {
				if gift.SBox[x^e]>>j&1 == 1 {
					hits++
				}
			}
			if hits > best && hits < len(list) {
				best = hits
			}
		}
	}
	return float64(best) / 8
}

// confirmSpan picks how many extra all-present observations a surviving
// line must endure before a hypothesis is accepted. Under a wrong
// hypothesis the expected line still receives signal on a pinShare
// fraction of encryptions and noise cover otherwise, so it dies at rate
// ≥ (1−pinShare)·(1−p̂) per observation, where p̂ is the noise presence
// ratio estimated from the strongest eliminated competitor. Demanding
// survival over K = log(fp)/log(1−rate) extra observations bounds the
// hypothesis false-positive rate by fp.
func (e *engine[W, RK]) confirmSpan(elim *Eliminator, line int) uint64 {
	pMax := min(runnerUp(elim, line, e.lines), 0.999)
	deathRate := (1 - e.desc.pinShare) * (1 - pMax)
	const fpRate = 1e-4
	k := uint64(math.Log(fpRate)/math.Log(1-deathRate)) + 1
	return min(k, maxObservationsPerTarget)
}

// RoundOutcome is the result of attacking every segment of one round
// key.
type RoundOutcome[RK any] struct {
	Round int
	// Cands[g] lists the key candidates for segment g of round key
	// Round. Single-entry lists mean the segment is resolved.
	Cands [][]uint8
	// ConfirmedPrev holds the resolved candidate per segment of round
	// key Round-1, when this pass disambiguated a pending previous round
	// (only meaningful when PrevResolved is true).
	ConfirmedPrev []uint8
	PrevResolved  bool
	// Encryptions is the channel usage of this pass alone.
	Encryptions uint64
	// roundKey assembles a round key from one candidate per segment.
	roundKey func(t int, cands []uint8) RK
}

// Unique reports whether every segment resolved to a single candidate,
// and returns the round key if so.
func (r RoundOutcome[RK]) Unique() (RK, bool) {
	cands := make([]uint8, len(r.Cands))
	for g, c := range r.Cands {
		if len(c) != 1 {
			var zero RK
			return zero, false
		}
		cands[g] = c[0]
	}
	return r.roundKey(r.Round, cands), true
}

// AttackRound attacks round key t across every segment (paper Step 5
// iterates this over rounds). resolved must hold the fully-recovered
// round keys 1..t-2 (or 1..t-1 when prevCands is nil); prevCands, when
// non-nil, holds the still-ambiguous candidates per segment of round
// key t-1 left over from the previous pass under a wide cache line. The
// pass then both recovers round-t candidates and disambiguates round
// t-1: wrong parent hypotheses destroy the crafted pinning, so their
// eliminations exhaust instead of converging (paper §III-D, "assume all
// possibilities").
func (e *engine[W, RK]) AttackRound(t int, resolved []RK, prevCands [][]uint8) (RoundOutcome[RK], error) {
	segs := e.desc.segments
	if prevCands != nil && !e.desc.hypotheses {
		return RoundOutcome[RK]{}, fmt.Errorf("core: %s hypothesis passes are unsupported", e.desc.name)
	}
	if t >= 2 {
		need := t - 1
		if prevCands != nil {
			need = t - 2
		}
		if len(resolved) < need {
			return RoundOutcome[RK]{}, fmt.Errorf("core: attacking round %d needs %d resolved round keys, have %d", t, need, len(resolved))
		}
	}

	out := RoundOutcome[RK]{Round: t, Cands: make([][]uint8, segs), roundKey: e.desc.roundKey}
	start := e.ch.Encryptions()
	e.lastRound = t
	e.lastStatuses = e.lastStatuses[:0]

	// confirmed[seg] holds the proven candidate for segment seg of round
	// key t-1; -1 = not yet proven.
	confirmed := make([]int8, segs)
	for i := range confirmed {
		confirmed[i] = -1
	}

	// obsShift is how many low index bits the line granularity hides
	// (0 for 1-word lines).
	obsShift := bits.TrailingZeros(uint(e.lineWords))

	for g := 0; g < segs; g++ {
		spec := e.desc.target(t, g)

		if prevCands == nil {
			// Crafting needs no hypotheses: earlier rounds are resolved
			// (or this is round 1 and sources are plaintext segments).
			o := e.attackTarget(spec, t, g, resolved[:max(t-1, 0)], false)
			e.progress(t, g, o.Converged, o.Line, o.Observations)
			e.lastStatuses = append(e.lastStatuses, o.status(t, g))
			if !o.Converged {
				return out, e.targetErr(t, g, o)
			}
			out.Cands[g] = o.Candidates
			continue
		}

		// Enumerate hypotheses for the parents whose wrongness is
		// observable: a wrong pair on the parent feeding index bit j
		// makes that bit vary, which changes the observed line only
		// when j is above the intra-line bits.
		parents := spec.ParentSegments()
		var enumPos []int
		for j := obsShift; j < 4; j++ {
			enumPos = append(enumPos, j)
		}

		options := make([][]uint8, len(enumPos))
		for i, j := range enumPos {
			seg := parents[j]
			if confirmed[seg] >= 0 {
				options[i] = []uint8{uint8(confirmed[seg])}
			} else {
				options[i] = prevCands[seg]
			}
		}

		won := false
		var last TargetOutcome
		for _, combo := range cartesian(options) {
			pairs := baselinePairs(prevCands, confirmed)
			for i, j := range enumPos {
				pairs[parents[j]] = combo[i]
			}
			rkPrev := e.desc.roundKey(t-1, pairs)
			rks := append(append([]RK{}, resolved[:t-2]...), rkPrev)
			o := e.attackTarget(spec, t, g, rks, true)
			last = o
			if !o.Converged {
				if o.ChannelErr != nil || e.overBudget() {
					e.lastStatuses = append(e.lastStatuses, o.status(t, g))
					return out, e.targetErr(t, g, o)
				}
				continue
			}
			// First (and only) converging combo: confirm the
			// enumerated parents and record round-t candidates.
			for i, j := range enumPos {
				confirmed[parents[j]] = int8(combo[i])
			}
			out.Cands[g] = o.Candidates
			e.progress(t, g, true, o.Line, o.Observations)
			won = true
			break
		}
		e.lastStatuses = append(e.lastStatuses, last.status(t, g))
		if !won {
			e.progress(t, g, false, -1, 0)
			return out, fmt.Errorf("core: round %d segment %d: no crafting hypothesis converged (%w)", t, g, ErrNoConvergence)
		}
	}

	if prevCands != nil {
		out.ConfirmedPrev = make([]uint8, segs)
		for seg, c := range confirmed {
			if c < 0 {
				// Every segment feeds index bit 3 of exactly one target,
				// and bit 3 is observable for any line width up to 8
				// words — so full coverage is structural.
				return out, fmt.Errorf("core: round %d left segment %d of round %d unresolved", t, seg, t-1)
			}
			out.ConfirmedPrev[seg] = uint8(c)
		}
		out.PrevResolved = true
	}
	out.Encryptions = e.ch.Encryptions() - start
	return out, nil
}

// baselinePairs picks an arbitrary candidate for every segment
// (confirmed values where available): segments whose hypotheses are
// unobservable for the current target only perturb already-random
// state, so any choice works.
func baselinePairs(prevCands [][]uint8, confirmed []int8) []uint8 {
	pairs := make([]uint8, len(confirmed))
	for seg, c := range confirmed {
		if c >= 0 {
			pairs[seg] = uint8(c)
		} else if len(prevCands[seg]) > 0 {
			pairs[seg] = prevCands[seg][0]
		}
	}
	return pairs
}

func (e *engine[W, RK]) targetErr(t, g int, o TargetOutcome) error {
	if o.ChannelErr != nil {
		return fmt.Errorf("core: round %d segment %d: %w", t, g, o.ChannelErr)
	}
	if e.overBudget() {
		return ErrBudgetExceeded
	}
	return fmt.Errorf("core: round %d segment %d: %d observations, %w",
		t, g, o.Observations, ErrNoConvergence)
}

// cartesian enumerates the cartesian product of the option lists.
func cartesian(options [][]uint8) [][]uint8 {
	combos := [][]uint8{nil}
	for _, opts := range options {
		var next [][]uint8
		for _, c := range combos {
			for _, o := range opts {
				nc := make([]uint8, len(c), len(c)+1)
				copy(nc, c)
				next = append(next, append(nc, o))
			}
		}
		combos = next
	}
	return combos
}

// recovery is the outcome of the full recovery loop: the resolved round
// keys (all desc.keyRounds of them on success, those resolved before
// the failure otherwise), the round passes run, and the encryptions
// consumed.
type recovery[RK any] struct {
	rks         []RK
	passes      int
	encryptions uint64
	err         error
}

// recoverKey runs the full attack: round passes 1, 2, … until
// desc.keyRounds consecutive round keys are resolved, with a
// disambiguation pass whenever wide lines left a round ambiguous.
func (e *engine[W, RK]) recoverKey() recovery[RK] {
	start := e.ch.Encryptions()
	var r recovery[RK]
	var pending [][]uint8
	for t := 1; len(r.rks) < e.desc.keyRounds; t++ {
		if t > e.desc.maxRound {
			r.err = fmt.Errorf("core: no resolution after %d round passes", r.passes)
			break
		}
		r.passes++
		out, err := e.AttackRound(t, r.rks, pending)
		if err != nil {
			r.err = err
			break
		}
		if pending != nil {
			r.rks = append(r.rks, e.desc.roundKey(t-1, out.ConfirmedPrev))
			pending = nil
		}
		if len(r.rks) >= e.desc.keyRounds {
			break
		}
		if rk, ok := out.Unique(); ok {
			r.rks = append(r.rks, rk)
		} else {
			pending = out.Cands
		}
	}
	r.encryptions = e.ch.Encryptions() - start
	return r
}

// gift64 describes GIFT-64 to the engine: 16 segments, two key bits per
// segment, and four round keys holding every master-key bit once.
var gift64 = cipherDesc[uint64, gift.RoundKey64]{
	name:       "GIFT-64",
	segments:   gift.Segments64,
	keyRounds:  4,
	maxRound:   8,
	target:     func(t, g int) target[uint64, gift.RoundKey64] { return target64(t, g) },
	roundKey:   roundKeyFromPairs,
	hypotheses: true,
	pinShare:   worstPinShare,
}

// Attacker drives the GRINCH attack against a GIFT-64 victim.
type Attacker struct {
	engine[uint64, gift.RoundKey64]
}

// NewAttacker builds a GIFT-64 attacker. The channel's line count must
// divide the 16-entry table; a single-line table (16 entries per line)
// carries no index information and is rejected — that is exactly the
// paper's first countermeasure. Unless Config.Batch is BatchOff, the
// elimination passes prime batches on a probe.BatchChannel; a channel
// that refuses to prime is never asked again after its first refusal.
func NewAttacker(ch probe.Channel, cfg Config) (*Attacker, error) {
	a := new(Attacker)
	if err := a.init(&gift64, ch, cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// AttackTarget runs paper Steps 1-4 for one target: craft plaintexts,
// collect probes, eliminate candidates, and reverse-engineer the key-bit
// candidates from the surviving line. rks supplies the round keys used
// for crafting (empty for Round == 1); hypothesized bits may be wrong,
// in which case the elimination exhausts (or converges infeasibly) and
// the outcome reports it.
func (a *Attacker) AttackTarget(spec TargetSpec, rks []gift.RoundKey64) TargetOutcome {
	return a.attackTarget(&spec, spec.Round, spec.Segment, rks, false)
}

// roundKeyFromPairs assembles a round key from per-segment (v|u<<1)
// pairs.
func roundKeyFromPairs(round int, pairs []uint8) gift.RoundKey64 {
	var rk gift.RoundKey64
	for g, p := range pairs {
		rk.V |= uint16(p&1) << g
		rk.U |= uint16(p>>1&1) << g
	}
	rk.Const = gift.RoundConstants[round-1]
	return rk
}

// KeyResult is a completed key recovery.
type KeyResult struct {
	// Key is the recovered 128-bit master key.
	Key bitutil.Word128
	// RoundKeys are the four recovered round keys (rounds 1..4), which
	// together contain every master-key bit exactly once.
	RoundKeys [4]gift.RoundKey64
	// Encryptions is the total victim encryptions consumed (the paper's
	// headline metric: < 400 under the best probing conditions).
	Encryptions uint64
	// RoundsAttacked is how many round passes ran (4 for 1-word lines,
	// 5 when wide lines forced a disambiguation pass).
	RoundsAttacked int
}

// RecoverKey runs the full GRINCH attack: it attacks rounds 1..4 (plus a
// fifth disambiguation pass when the cache line hides index bits) and
// reassembles the 128-bit master key from the four recovered round keys.
func (a *Attacker) RecoverKey() (KeyResult, error) {
	r := a.recoverKey()
	return keyResult64(r), r.err
}

// RecoverKeyGraceful runs the full attack but degrades failures into a
// structured PartialResult instead of an error: every segment of the
// failing round pass reports its own status (converged line,
// observations, restarts, retries, confidence), segments never reached
// are padded as unattempted, and Reason classifies why the attack
// stopped. A nil PartialResult means full recovery and the KeyResult
// is complete.
func (a *Attacker) RecoverKeyGraceful() (KeyResult, *PartialResult) {
	r := a.recoverKey()
	return keyResult64(r), a.partial(r)
}

// keyResult64 assembles the KeyResult of a recovery (zero on failure).
func keyResult64(r recovery[gift.RoundKey64]) KeyResult {
	if r.err != nil {
		return KeyResult{}
	}
	res := KeyResult{Encryptions: r.encryptions, RoundsAttacked: r.passes}
	copy(res.RoundKeys[:], r.rks)
	res.Key = AssembleKey(res.RoundKeys)
	return res
}

// AssembleKey rebuilds the master key from the first four round keys:
// round t consumes limbs k_{2t-1} (U) and k_{2t-2} (V) of the original
// key state (see gift.ExpandKey64).
func AssembleKey(rks [4]gift.RoundKey64) bitutil.Word128 {
	var key bitutil.Word128
	for t, rk := range rks {
		key = key.SetWord16(uint(2*t), rk.V)
		key = key.SetWord16(uint(2*t+1), rk.U)
	}
	return key
}

// Verify checks a recovered key against one known plaintext/ciphertext
// pair.
func Verify(key bitutil.Word128, pt, ct uint64) bool {
	return gift.NewCipher64FromWord(key).EncryptBlock(pt) == ct
}
