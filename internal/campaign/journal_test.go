package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"grinch/internal/obs"
)

// recordSeed is the seed journalRecords gives job i; the journals
// built from those records are opened with it as their grid's seeds.
func recordSeed(job int) uint64 { return uint64(1000003 * (job + 1)) }

// journalRecords returns n distinct results covering the optional
// fields, including an error message that JSON must escape.
func journalRecords(n int) []Result {
	recs := make([]Result, n)
	for i := range recs {
		recs[i] = Result{
			Job:         i,
			Point:       Point{Kind: "first-round", LineWords: 1 + i%2, ProbeRound: 1 + i%3, Trial: i},
			Seed:        recordSeed(i),
			Measurement: Measurement{Encryptions: uint64(40 + i), Correct: i%2 == 0, Round: 1},
		}
		if i%3 == 2 {
			recs[i].Failed = true
			recs[i].Err = fmt.Sprintf("job %d: \"boom\"\n", i)
		}
	}
	return recs
}

// TestJournalCrashAtEveryOffset cuts a journal off at every byte
// offset — a crash mid-write anywhere, the header included. In
// "campaign", reopening must replay exactly the records whose newline
// survived, and appending the rest must restore the uncut file byte
// for byte. In "run", a resumed Run must execute exactly the jobs whose
// records were cut, each once, and write the uncut run's bytes.
func TestJournalCrashAtEveryOffset(t *testing.T) {
	spec := testSpec()
	t.Run("campaign", func(t *testing.T) {
		crashAtEveryOffset(t, journalHeader{Campaign: spec.Name, Fingerprint: spec.Fingerprint(), Jobs: spec.NumJobs()})
	})
	t.Run("run", func(t *testing.T) {
		// Small, so the ~1 KB journal's every offset resumes quickly.
		crashRunAtEveryOffset(t, Spec{Name: "crash", Kind: "toy", Seed: 7, Trials: 4, LineWords: []int{1, 2}})
	})
}

func crashAtEveryOffset(t *testing.T, hdr journalHeader) {
	path := filepath.Join(t.TempDir(), "crash.journal")
	recs := journalRecords(5)
	j, prior, err := openJournal(path, hdr, recordSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh journal holds %d records", len(prior))
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ends[0] is the header's end; ends[i+1] is record i's end.
	var ends []int
	for i, b := range full {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != 1+len(recs) {
		t.Fatalf("journal has %d lines, want %d", len(ends), 1+len(recs))
	}

	for k := 0; k <= len(full); k++ {
		if err := os.WriteFile(path, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		j, prior, err := openJournal(path, hdr, recordSeed)
		if err != nil {
			t.Fatalf("offset %d: reopening: %v", k, err)
		}
		want := map[int]Result{}
		for i, r := range recs {
			if ends[i+1] <= k {
				want[r.Job] = r
			}
		}
		if !reflect.DeepEqual(prior, want) {
			t.Fatalf("offset %d: replayed %d records %v, want %d", k, len(prior), prior, len(want))
		}
		for _, r := range recs {
			if _, ok := prior[r.Job]; !ok {
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("offset %d: resumed journal differs from the uncut one:\n%s\nwant\n%s", k, got, full)
		}
		j, prior, err = openJournal(path, hdr, recordSeed)
		if err != nil {
			t.Fatalf("offset %d: second reopen: %v", k, err)
		}
		j.Close()
		if len(prior) != len(recs) {
			t.Fatalf("offset %d: second reopen holds %d records, want %d", k, len(prior), len(recs))
		}
	}
}

// crashRunAtEveryOffset runs spec to completion with a journal, then
// for every prefix of that journal resumes the run with a counting
// executor.
func crashRunAtEveryOffset(t *testing.T, spec Spec) {
	path := filepath.Join(t.TempDir(), "run.journal")
	var mu sync.Mutex
	var ran map[int]int
	exec := func(job Job, _ obs.Tracer) (Measurement, error) {
		mu.Lock()
		ran[job.Index]++
		mu.Unlock()
		if job.Index%7 == 3 {
			return Measurement{}, fmt.Errorf("job %d: injected", job.Index)
		}
		return Measurement{Encryptions: job.Seed % 1000, Correct: job.Seed%2 == 0, Round: 1}, nil
	}
	run := func() (jsonl, csv []byte) {
		ran = map[int]int{}
		var jb, cb bytes.Buffer
		_, err := Run(context.Background(), spec, exec, Options{
			Workers: 2, Journal: path, Sinks: []Sink{&JSONLSink{W: &jb}, &CSVSink{W: &cb}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return jb.Bytes(), cb.Bytes()
	}
	wantJSONL, wantCSV := run()
	full := readJournal(t, path)
	// end[job] is the offset just past job's record.
	end := map[int]int{}
	off := 0
	for i, line := range bytes.SplitAfter(full, []byte{'\n'}) {
		off += len(line)
		if i == 0 || len(line) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		end[r.Job] = off
	}
	if len(end) != spec.NumJobs() {
		t.Fatalf("journal holds %d records, want %d", len(end), spec.NumJobs())
	}

	for k := 0; k <= len(full); k++ {
		if err := os.WriteFile(path, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		jsonl, csv := run()
		for job, e := range end {
			want := 0
			if e > k {
				want = 1 // the cut tore or dropped its record
			}
			if ran[job] != want {
				t.Fatalf("offset %d: job %d (record ends at %d) executed %d times, want %d", k, job, e, ran[job], want)
			}
		}
		if !bytes.Equal(jsonl, wantJSONL) || !bytes.Equal(csv, wantCSV) {
			t.Fatalf("offset %d: resumed run's output differs from the uncut run", k)
		}
	}
}

// TestAppendBatchMatchesAppend: one AppendBatch of canonical lines
// writes the bytes of the same records appended one at a time, and
// Append stores the canonical projection only.
func TestAppendBatchMatchesAppend(t *testing.T) {
	hdr := journalHeader{Campaign: "toy", Fingerprint: "00000000deadbeef", Jobs: 64}
	recs := journalRecords(64)
	recs[1].DurationNS, recs[1].Worker = 5100, 3
	dir := t.TempDir()
	one, _, err := openJournal(filepath.Join(dir, "one.journal"), hdr, recordSeed)
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := openJournal(filepath.Join(dir, "batch.journal"), hdr, recordSeed)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, len(recs))
	for i, r := range recs {
		if err := one.Append(r); err != nil {
			t.Fatal(err)
		}
		if lines[i], err = CanonicalLine(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.AppendBatch(lines); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(one.Close(), batch.Close()); err != nil {
		t.Fatal(err)
	}
	a, b := readJournal(t, filepath.Join(dir, "one.journal")), readJournal(t, filepath.Join(dir, "batch.journal"))
	if !bytes.Equal(a, b) {
		t.Fatalf("batched journal differs:\n%s\nwant\n%s", b, a)
	}
	if bytes.Contains(a, []byte("duration_ns")) || bytes.Contains(a, []byte(`"worker"`)) {
		t.Fatalf("journal kept execution-specific fields:\n%s", a)
	}
}

func readJournal(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJournalLoadsExistingFormat pins the on-disk format: a campaign
// journal written line for line in the established layout loads
// unchanged, and the next append adds exactly one record line. Each
// record carries its job's seed in the grid, as OpenJournal requires.
func TestJournalLoadsExistingFormat(t *testing.T) {
	spec := testSpec()
	seed0, seed1, seed2 := DeriveSeed(spec.Seed, 0), DeriveSeed(spec.Seed, 1), DeriveSeed(spec.Seed, 2)
	existing := fmt.Sprintf(`{"campaign":"toy","fingerprint":"%s","jobs":36}
{"job":0,"point":{"kind":"toy","line_words":1,"flush":true,"probe_round":1,"trial":0},"seed":%d,"encryptions":120,"correct":true,"round":1,"duration_ns":5100,"worker":1}
{"job":1,"point":{"kind":"toy","line_words":1,"flush":true,"probe_round":1,"trial":1},"seed":%d,"failed":true,"error":"injected"}
`, spec.Fingerprint(), seed0, seed1)
	path := filepath.Join(t.TempDir(), "toy.journal")
	if err := os.WriteFile(path, []byte(existing), 0o644); err != nil {
		t.Fatal(err)
	}
	j, prior, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]Result{
		0: {Job: 0, Point: Point{Kind: "toy", LineWords: 1, Flush: true, ProbeRound: 1, Trial: 0}, Seed: seed0,
			Measurement: Measurement{Encryptions: 120, Correct: true, Round: 1}, DurationNS: 5100, Worker: 1},
		1: {Job: 1, Point: Point{Kind: "toy", LineWords: 1, Flush: true, ProbeRound: 1, Trial: 1}, Seed: seed1,
			Failed: true, Err: "injected"},
	}
	if !reflect.DeepEqual(prior, want) {
		t.Fatalf("loaded %+v\nwant %+v", prior, want)
	}
	next := Result{Job: 2, Point: Point{Kind: "toy", LineWords: 1, Flush: true, ProbeRound: 1, Trial: 2}, Seed: seed2,
		Measurement: Measurement{Encryptions: 7}}
	if err := j.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := existing + fmt.Sprintf(`{"job":2,"point":{"kind":"toy","line_words":1,"flush":true,"probe_round":1,"trial":2},"seed":%d,"encryptions":7}`, seed2) + "\n"
	if string(got) != wantBytes {
		t.Fatalf("journal bytes changed:\n%s\nwant\n%s", got, wantBytes)
	}
}

// TestJournalRejectsCorruptInterior: a complete line that does not
// decode is corruption, not a crash artifact (a crash only tears the
// final, newline-less line). Opening must fail naming the file and the
// line, and leave the file as it was.
func TestJournalRejectsCorruptInterior(t *testing.T) {
	spec := testSpec()
	hdr := fmt.Sprintf(`{"campaign":"toy","fingerprint":"%s","jobs":36}`+"\n", spec.Fingerprint())
	rec := func(job int) string {
		return fmt.Sprintf(`{"job":%d,"point":{"kind":"toy","line_words":1,"flush":true,"probe_round":1,"trial":%d},"seed":%d,"encryptions":7}`+"\n", job, job, DeriveSeed(spec.Seed, job))
	}
	for name, c := range map[string]struct {
		body string
		line int // the corrupt line, 1-based; the header is line 1
	}{
		"interior":   {hdr + rec(0) + "{\"job\":1,\"poi\n" + rec(2), 3},
		"last":       {hdr + rec(0) + "garbage\n", 3},
		"empty-line": {hdr + "\n" + rec(0), 2},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "toy.journal")
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			j, prior, err := OpenJournal(path, spec)
			if err == nil {
				j.Close()
				t.Fatalf("corrupt journal loaded %d records", len(prior))
			}
			if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, fmt.Sprintf("line %d", c.line)) {
				t.Fatalf("error %q does not name %s line %d", msg, path, c.line)
			}
			if got := readJournal(t, path); string(got) != c.body {
				t.Fatalf("refused journal was rewritten:\n%s", got)
			}
		})
	}
}

// fuzzHeader pins the journals of FuzzOpenJournal, and fuzzSeed gives
// the seeds of its grid; the seed corpus in
// testdata/fuzz/FuzzOpenJournal uses both for its valid journals.
var fuzzHeader = journalHeader{Campaign: "toy", Fingerprint: "00000000deadbeef", Jobs: 4}

func fuzzSeed(job int) uint64 { return uint64(11 + job) }

// FuzzOpenJournal: whatever a journal file holds, opening it either
// fails and leaves the file as it was, or replays records of the grid
// only, and after one append a reopen replays exactly those records
// plus the new one.
func FuzzOpenJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, prior, err := openJournal(path, fuzzHeader, fuzzSeed)
		if err != nil {
			if got := readJournal(t, path); !bytes.Equal(got, data) {
				t.Fatalf("refused journal (%v) was rewritten", err)
			}
			return
		}
		for job, r := range prior {
			if job != r.Job || job < 0 || job >= fuzzHeader.Jobs || r.Seed != fuzzSeed(job) {
				t.Fatalf("replayed %+v under job %d, which is not a record of the grid", r, job)
			}
		}
		next := Result{Job: 3, Point: Point{Kind: "toy", Trial: 3}, Seed: fuzzSeed(3), Measurement: Measurement{Encryptions: 5}}
		if err := j.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, again, err := openJournal(path, fuzzHeader, fuzzSeed)
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		j.Close()
		want := maps.Clone(prior)
		want[next.Job] = next
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("reopen replayed %v, want %v", again, want)
		}
	})
}

// BenchmarkJournalAppend is the journal rung of the layer ladder: one
// canonical Result, shaped like a Table I record, appended per op.
func BenchmarkJournalAppend(b *testing.B) {
	j, _, err := OpenJournal(filepath.Join(b.TempDir(), "bench.journal"), testSpec())
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	r := Result{
		Point:       Point{Kind: "first-round", LineWords: 2, ProbeRound: 1, Trial: 7},
		Seed:        0x9e3779b97f4a7c15,
		Measurement: Measurement{Encryptions: 118, Correct: true, Round: 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Job = i
		if err := j.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJournalRejectsRecordsOutsideGrid: a complete line that decodes
// but is not a record of the journal's grid is corruption too. `null`
// and `{}` decode to job 0 with seed 0, a job index outside [0, jobs)
// names no grid point, and a seed other than the job's derived seed
// belongs to another campaign. Opening must fail naming the file and
// the line, leave the file as it was, and a resumed Run must refuse
// rather than count the line as a skipped job.
func TestJournalRejectsRecordsOutsideGrid(t *testing.T) {
	spec := testSpec()
	hdr := fmt.Sprintf(`{"campaign":"toy","fingerprint":"%s","jobs":36}`+"\n", spec.Fingerprint())
	rec := func(job int, seed uint64) string {
		return fmt.Sprintf(`{"job":%d,"point":{"kind":"toy","line_words":1,"flush":true,"probe_round":1,"trial":0},"seed":%d,"encryptions":7}`+"\n", job, seed)
	}
	good := func(job int) string { return rec(job, DeriveSeed(spec.Seed, job)) }
	for name, c := range map[string]struct {
		body string
		line int // the offending line, 1-based; the header is line 1
	}{
		"null":         {hdr + good(0) + "null\n", 3},
		"empty-object": {hdr + "{}\n" + good(1), 2},
		"past-grid":    {hdr + good(0) + good(99) + good(1), 3},
		"at-grid-end":  {hdr + good(36), 2},
		"negative":     {hdr + good(-1), 2},
		"foreign-seed": {hdr + good(0) + rec(1, 42), 3},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "toy.journal")
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			j, prior, err := OpenJournal(path, spec)
			if err == nil {
				j.Close()
				t.Fatalf("journal with a record outside the grid loaded %v", prior)
			}
			if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, fmt.Sprintf("line %d", c.line)) {
				t.Fatalf("error %q does not name %s line %d", msg, path, c.line)
			}
			rep, err := Run(context.Background(), spec, toyExec, Options{Workers: 1, Journal: path})
			if err == nil {
				t.Fatalf("Run resumed the journal: skipped=%d executed=%d of %d", rep.Skipped, rep.Executed, rep.Total)
			}
			if got := readJournal(t, path); string(got) != c.body {
				t.Fatalf("refused journal was rewritten:\n%s", got)
			}
		})
	}

	// The grid's own records, first and last job, still load.
	path := filepath.Join(t.TempDir(), "toy.journal")
	if err := os.WriteFile(path, []byte(hdr+good(0)+good(35)), 0o644); err != nil {
		t.Fatal(err)
	}
	j, prior, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(prior) != 2 || prior[35].Seed != DeriveSeed(spec.Seed, 35) {
		t.Fatalf("grid records replayed as %v", prior)
	}
}
