package campaign

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"grinch/internal/stats"
)

// Sink consumes campaign results. The runner calls Begin once before
// the first result, Write once per job in strictly ascending job-index
// order (regardless of the order workers finish), and Close exactly
// once at the end of the run — including interrupted runs, where the
// sink has received a clean index-prefix of the campaign. Write is
// never called concurrently.
type Sink interface {
	Begin(spec Spec, totalJobs int) error
	Write(Result) error
	Close() error
}

// CanonicalLine encodes r's canonical projection as one JSON line,
// newline included. It is the only encoder of a deterministic result
// record: the untimed JSONLSink, the journals and campaignd's shard
// store all write its bytes, so campaignd's merge — a concatenation of
// stored lines — is byte-identical to a single-process JSONL run by
// construction.
func CanonicalLine(r Result) ([]byte, error) {
	b, err := json.Marshal(r.Canonical())
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// JSONLSink streams one JSON object per line. With Timing false (the
// default) the per-execution fields (duration, worker) are stripped so
// the byte stream is identical for any worker count — the serialized
// form of the determinism contract.
type JSONLSink struct {
	W io.Writer
	// Timing preserves duration_ns/worker in the records.
	Timing bool

	bw *bufio.Writer
}

// Begin implements Sink.
func (s *JSONLSink) Begin(Spec, int) error {
	s.bw = bufio.NewWriter(s.W)
	return nil
}

// Write implements Sink.
func (s *JSONLSink) Write(r Result) error {
	var b []byte
	var err error
	if s.Timing {
		b, err = json.Marshal(r)
		b = append(b, '\n')
	} else {
		b, err = CanonicalLine(r)
	}
	if err != nil {
		return err
	}
	_, err = s.bw.Write(b)
	return err
}

// Close implements Sink.
func (s *JSONLSink) Close() error { return s.bw.Flush() }

// CSVSink streams results as flat CSV rows with a fixed header, for
// spreadsheet/pandas consumption. Timing fields are omitted, so the
// file is deterministic.
type CSVSink struct {
	W io.Writer

	cw *csv.Writer
}

var csvHeader = []string{
	"job", "kind", "platform", "mhz", "line_words", "flush",
	"probe_round", "fault", "trial", "seed", "encryptions", "dropped_out",
	"correct", "round", "partial", "resolved_rounds", "segments_converged",
	"confidence", "reason", "retries", "faults", "failed", "error",
}

// Begin implements Sink.
func (s *CSVSink) Begin(Spec, int) error {
	s.cw = csv.NewWriter(s.W)
	return s.cw.Write(csvHeader)
}

// Write implements Sink.
func (s *CSVSink) Write(r Result) error {
	p := r.Point
	return s.cw.Write([]string{
		strconv.Itoa(r.Job), p.Kind, p.Platform,
		strconv.FormatUint(p.MHz, 10), strconv.Itoa(p.LineWords),
		strconv.FormatBool(p.Flush), strconv.Itoa(p.ProbeRound),
		p.Fault, strconv.Itoa(p.Trial), strconv.FormatUint(r.Seed, 10),
		strconv.FormatUint(r.Encryptions, 10),
		strconv.FormatBool(r.DroppedOut), strconv.FormatBool(r.Correct),
		strconv.Itoa(r.Round), strconv.FormatBool(r.Partial),
		strconv.Itoa(r.ResolvedRounds), strconv.Itoa(r.SegmentsConverged),
		strconv.FormatFloat(r.Confidence, 'g', -1, 64), r.Reason,
		strconv.FormatUint(r.Retries, 10), strconv.FormatUint(r.Faults, 10),
		strconv.FormatBool(r.Failed), r.Err,
	})
}

// Close implements Sink.
func (s *CSVSink) Close() error {
	s.cw.Flush()
	return s.cw.Error()
}

// Collector retains every result in job-index order for in-process
// aggregation — the sink the experiment drivers use to fold campaign
// output back into paper tables.
type Collector struct {
	Results []Result
}

// Begin implements Sink.
func (c *Collector) Begin(_ Spec, totalJobs int) error {
	c.Results = make([]Result, 0, totalJobs)
	return nil
}

// Write implements Sink.
func (c *Collector) Write(r Result) error {
	c.Results = append(c.Results, r)
	return nil
}

// Close implements Sink.
func (c *Collector) Close() error { return nil }

// CellAgg is one grid cell's aggregate over its trials.
type CellAgg struct {
	Point Point // Trial is zero; the cell's coordinates
	// Encryptions per finished trial, in trial order.
	Trials []uint64
	// Rounds per trial for platform-race cells.
	Rounds     []int
	DroppedOut bool
	Failed     int
	Correct    int
	// Partial counts trials that ended in graceful degradation rather
	// than full recovery; Faults totals injected faults across trials.
	Partial int
	Faults  uint64
}

// Summary summarizes the per-trial encryption counts.
func (c CellAgg) Summary() stats.Summary { return stats.SummarizeUint64(c.Trials) }

// Aggregator groups results by grid cell as they stream in, feeding
// the existing stats summaries. Cells come back in job-index order, so
// the aggregate view is as deterministic as the raw stream.
type Aggregator struct {
	cells map[string]*CellAgg
	order []string
}

// Begin implements Sink.
func (a *Aggregator) Begin(Spec, int) error {
	a.cells = make(map[string]*CellAgg)
	a.order = a.order[:0]
	return nil
}

// Write implements Sink.
func (a *Aggregator) Write(r Result) error {
	key := r.Point.CellKey()
	cell, ok := a.cells[key]
	if !ok {
		p := r.Point
		p.Trial = 0
		cell = &CellAgg{Point: p}
		a.cells[key] = cell
		a.order = append(a.order, key)
	}
	if r.Failed {
		cell.Failed++
		return nil
	}
	cell.Trials = append(cell.Trials, r.Encryptions)
	if r.DroppedOut {
		cell.DroppedOut = true
	}
	if r.Correct {
		cell.Correct++
	}
	if r.Round != 0 {
		cell.Rounds = append(cell.Rounds, r.Round)
	}
	if r.Partial {
		cell.Partial++
	}
	cell.Faults += r.Faults
	return nil
}

// Close implements Sink.
func (a *Aggregator) Close() error { return nil }

// Cells returns the aggregated cells in first-seen (job-index) order.
func (a *Aggregator) Cells() []CellAgg {
	out := make([]CellAgg, 0, len(a.order))
	for _, k := range a.order {
		out = append(out, *a.cells[k])
	}
	return out
}

// multiSink fans Write calls out to several sinks, failing on the
// first error.
type multiSink []Sink

func (m multiSink) Begin(spec Spec, total int) error {
	for _, s := range m {
		if err := s.Begin(spec, total); err != nil {
			return err
		}
	}
	return nil
}

func (m multiSink) Write(r Result) error {
	for _, s := range m {
		if err := s.Write(r); err != nil {
			return err
		}
	}
	return nil
}

func (m multiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = fmt.Errorf("campaign: closing sink: %w", err)
		}
	}
	return first
}
