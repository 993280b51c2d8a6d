package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalRecords returns n distinct results covering the optional
// fields, including an error message that JSON must escape.
func journalRecords(n int) []Result {
	recs := make([]Result, n)
	for i := range recs {
		recs[i] = Result{
			Job:         i,
			Point:       Point{Kind: "first-round", LineWords: 1 + i%2, ProbeRound: 1 + i%3, Trial: i},
			Seed:        uint64(1000003 * (i + 1)),
			Measurement: Measurement{Encryptions: uint64(40 + i), Correct: i%2 == 0, Round: 1},
		}
		if i%3 == 2 {
			recs[i].Failed = true
			recs[i].Err = fmt.Sprintf("job %d: \"boom\"\n", i)
		}
	}
	return recs
}

// testShardHeader has the shape of campaignd's shard journal header,
// so both header kinds go through the every-offset test.
type testShardHeader struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Shard       int    `json:"shard"`
	Start       int    `json:"start"`
	End         int    `json:"end"`
}

// TestJournalCrashAtEveryOffset cuts a journal off at every byte
// offset — a crash mid-write anywhere, the header included — and
// checks that reopening replays exactly the records whose newline
// survived, and that appending the rest restores the uncut file byte
// for byte, so every job is recorded exactly once.
func TestJournalCrashAtEveryOffset(t *testing.T) {
	spec := testSpec()
	t.Run("campaign", func(t *testing.T) {
		crashAtEveryOffset(t, journalHeader{Campaign: spec.Name, Fingerprint: spec.Fingerprint(), Jobs: spec.NumJobs()})
	})
	t.Run("shard", func(t *testing.T) {
		crashAtEveryOffset(t, testShardHeader{Campaign: "c0003", Fingerprint: spec.Fingerprint(), Shard: 2, Start: 0, End: 5})
	})
}

func crashAtEveryOffset[H comparable](t *testing.T, hdr H) {
	path := filepath.Join(t.TempDir(), "crash.journal")
	recs := journalRecords(5)
	j, prior, err := OpenLog(path, hdr)
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
		j, prior, err := OpenLog(path, hdr)
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
		j, prior, err = OpenLog(path, hdr)
		if err != nil {
			t.Fatalf("offset %d: second reopen: %v", k, err)
		}
		j.Close()
		if len(prior) != len(recs) {
			t.Fatalf("offset %d: second reopen holds %d records, want %d", k, len(prior), len(recs))
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
	one, _, err := OpenLog(filepath.Join(dir, "one.journal"), hdr)
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := OpenLog(filepath.Join(dir, "batch.journal"), hdr)
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
// unchanged, and the next append adds exactly one record line.
func TestJournalLoadsExistingFormat(t *testing.T) {
	spec := testSpec()
	existing := fmt.Sprintf(`{"campaign":"toy","fingerprint":"%s","jobs":36}
{"job":0,"point":{"kind":"toy","line_words":1,"flush":true,"probe_round":1,"trial":0},"seed":42,"encryptions":120,"correct":true,"round":1,"duration_ns":5100,"worker":1}
{"job":1,"point":{"kind":"toy","line_words":1,"flush":true,"probe_round":1,"trial":1},"seed":43,"failed":true,"error":"injected"}
`, spec.Fingerprint())
	path := filepath.Join(t.TempDir(), "toy.journal")
	if err := os.WriteFile(path, []byte(existing), 0o644); err != nil {
		t.Fatal(err)
	}
	j, prior, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]Result{
		0: {Job: 0, Point: Point{Kind: "toy", LineWords: 1, Flush: true, ProbeRound: 1, Trial: 0}, Seed: 42,
			Measurement: Measurement{Encryptions: 120, Correct: true, Round: 1}, DurationNS: 5100, Worker: 1},
		1: {Job: 1, Point: Point{Kind: "toy", LineWords: 1, Flush: true, ProbeRound: 1, Trial: 1}, Seed: 43,
			Failed: true, Err: "injected"},
	}
	if !reflect.DeepEqual(prior, want) {
		t.Fatalf("loaded %+v\nwant %+v", prior, want)
	}
	next := Result{Job: 2, Point: Point{Kind: "toy", LineWords: 1, Flush: true, ProbeRound: 1, Trial: 2}, Seed: 44,
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
	wantBytes := existing + `{"job":2,"point":{"kind":"toy","line_words":1,"flush":true,"probe_round":1,"trial":2},"seed":44,"encryptions":7}` + "\n"
	if string(got) != wantBytes {
		t.Fatalf("journal bytes changed:\n%s\nwant\n%s", got, wantBytes)
	}
}

// fuzzHeader pins the journals of FuzzOpenJournal; the seed corpus in
// testdata/fuzz/FuzzOpenJournal uses it for its valid journals.
var fuzzHeader = journalHeader{Campaign: "toy", Fingerprint: "00000000deadbeef", Jobs: 4}

// FuzzOpenJournal: whatever a journal file holds, opening it either
// fails or replays some records, and after one append a reopen replays
// exactly those records plus the new one.
func FuzzOpenJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, prior, err := OpenLog(path, fuzzHeader)
		if err != nil {
			return
		}
		next := Result{Job: 3, Point: Point{Kind: "toy", Trial: 3}, Seed: 99, Measurement: Measurement{Encryptions: 5}}
		if err := j.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, again, err := OpenLog(path, fuzzHeader)
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
