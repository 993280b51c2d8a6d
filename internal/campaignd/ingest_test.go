package campaignd_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
)

// execute computes every job of spec with toyExec, in index order —
// the results a worker would report.
func execute(spec campaign.Spec) []campaign.Result {
	jobs := spec.Jobs()
	out := make([]campaign.Result, len(jobs))
	for i, j := range jobs {
		r := campaign.Result{Job: j.Index, Point: j.Point, Seed: j.Seed}
		if m, err := toyExec(j, nil); err != nil {
			r.Failed, r.Err = true, err.Error()
		} else {
			r.Measurement = m
		}
		out[i] = r
	}
	return out
}

// campaignJournal is the on-disk path of a campaign's journal (layout
// in store.go).
func campaignJournal(dataDir, campaignID string) string {
	return filepath.Join(dataDir, campaignID, "campaign.journal")
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIngestRejectedBatchCommitsNothing: a report with one job outside
// the lease's shard is refused whole. Neither the in-range jobs before
// it nor any counter may be committed, in memory or in the journal.
func TestIngestRejectedBatchCommitsNothing(t *testing.T) {
	spec := campaign.Spec{Name: "reject", Kind: "toy", Seed: 3, Trials: 8}
	dir := t.TempDir()
	srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := srv.Acquire("w").Lease
	if l == nil || l.Start != 0 || l.End != 4 {
		t.Fatalf("lease = %+v, want shard [0,4)", l)
	}
	res := execute(spec)
	path := campaignJournal(dir, resp.ID)
	before := readFile(t, path)

	if err := srv.Ingest(l.ID, []campaign.Result{res[0], res[1], res[6]}); err == nil {
		t.Fatal("a report with job 6 against shard [0,4) was accepted")
	}
	if st, _ := srv.Status(resp.ID); st.Done != 0 {
		t.Fatalf("rejected report committed %d results", st.Done)
	}
	if after := readFile(t, path); !bytes.Equal(after, before) {
		t.Fatalf("rejected report changed the journal:\n%s", after[len(before):])
	}

	// The same jobs in a valid report are fresh, not duplicates.
	if err := srv.Ingest(l.ID, res[0:2]); err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Status(resp.ID); st.Done != 2 {
		t.Fatalf("valid report after a rejected one: done = %d, want 2", st.Done)
	}
}

// TestIngestRejectsForeignSeed: a report whose result carries a seed
// other than its job's derived seed is refused whole and commits
// nothing, so the journal never holds a record that
// campaign.OpenJournal would refuse on the next boot.
func TestIngestRejectsForeignSeed(t *testing.T) {
	spec := campaign.Spec{Name: "seed", Kind: "toy", Seed: 3, Trials: 8}
	dir := t.TempDir()
	srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := srv.Acquire("w").Lease
	res := execute(spec)
	foreign := res[1]
	foreign.Seed++
	path := campaignJournal(dir, resp.ID)
	before := readFile(t, path)
	if err := srv.Ingest(l.ID, []campaign.Result{res[0], foreign}); err == nil {
		t.Fatal("a report with a foreign seed was accepted")
	}
	if st, _ := srv.Status(resp.ID); st.Done != 0 {
		t.Fatalf("rejected report committed %d results", st.Done)
	}
	if after := readFile(t, path); !bytes.Equal(after, before) {
		t.Fatalf("rejected report changed the journal:\n%s", after[len(before):])
	}
}

// TestTornBatchWriteAtEveryOffset cuts a campaign journal at every byte
// offset inside one 64-record report — a single AppendBatch write. At
// every offset, campaign.OpenJournal must recover exactly the records
// whose newline landed and cut the torn tail off. At each record
// boundary, one byte either side of it and the end of the file, the
// whole coordinator restarts on the cut journal: the re-issued lease
// must list exactly the recovered records as done, and finishing the
// shard must restore the uncut journal and merge to the bytes of a
// single-process run.
func TestTornBatchWriteAtEveryOffset(t *testing.T) {
	spec := campaign.Spec{Name: "torn", Kind: "toy", Seed: 5, Trials: 36, LineWords: []int{1, 2}}
	const first = 8 // records committed before the torn batch
	res := execute(spec)
	if len(res) != first+64 {
		t.Fatalf("spec expands to %d jobs, want %d", len(res), first+64)
	}
	wantJSONL, _ := referenceBytes(t, spec)

	dir := t.TempDir()
	srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: len(res)})
	if err != nil {
		t.Fatal(err)
	}
	l := srv.Acquire("w").Lease
	if err := srv.Ingest(l.ID, res[:first]); err != nil {
		t.Fatal(err)
	}
	path := campaignJournal(dir, resp.ID)
	batchStart := len(readFile(t, path))
	if err := srv.Ingest(l.ID, res[first:]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	full := readFile(t, path)

	boots := map[int]bool{batchStart: true, batchStart + 1: true, len(full): true}
	for k := batchStart; k < len(full); k++ {
		if full[k] == '\n' {
			boots[k] = true // one byte short of the boundary
			boots[k+1] = true
			boots[k+2] = true
		}
	}

	// open checks what campaign.OpenJournal alone recovers from the
	// journal cut at k.
	open := func(k int) {
		committed := bytes.LastIndexByte(full[:k], '\n') + 1
		done := first + bytes.Count(full[batchStart:k], []byte{'\n'})
		j, prior, err := campaign.OpenJournal(path, spec)
		if err != nil {
			t.Fatalf("offset %d: opening the journal: %v", k, err)
		}
		j.Close()
		want := make(map[int]campaign.Result, done)
		for _, r := range res[:done] {
			want[r.Job] = r
		}
		if !reflect.DeepEqual(prior, want) {
			t.Fatalf("offset %d: recovered %d records, want jobs [0,%d)", k, len(prior), done)
		}
		if j := readFile(t, path); !bytes.Equal(j, full[:committed]) {
			t.Fatalf("offset %d: the torn tail was not cut: %d bytes left, want %d", k, len(j), committed)
		}
	}

	// boot restarts the coordinator on the journal cut at k and
	// finishes the campaign.
	boot := func(k int) {
		srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir})
		if err != nil {
			t.Fatalf("offset %d: recovering: %v", k, err)
		}
		done := first + bytes.Count(full[batchStart:k], []byte{'\n'})
		want := make([]int, done)
		for i := range want {
			want[i] = i
		}
		if st, _ := srv.Status(resp.ID); st.Done != done {
			t.Fatalf("offset %d: recovered %d records, want %d", k, st.Done, done)
		}
		// A journal holding every record recovers as merged: no lease.
		if l := srv.Acquire("w").Lease; done < len(res) {
			if l == nil {
				t.Fatalf("offset %d: no lease re-issued", k)
			}
			if !reflect.DeepEqual(l.DoneJobs, want) {
				t.Fatalf("offset %d: re-issued lease lists done jobs %v, want %v", k, l.DoneJobs, want)
			}
			if err := srv.Ingest(l.ID, res[done:]); err != nil {
				t.Fatalf("offset %d: re-ingesting: %v", k, err)
			}
			if err := srv.Complete(l.ID); err != nil {
				t.Fatalf("offset %d: completing: %v", k, err)
			}
		} else if l != nil {
			t.Fatalf("offset %d: a complete journal re-issued %+v", k, l)
		}
		got, err := srv.Output(resp.ID)
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		if !bytes.Equal(got, wantJSONL) {
			t.Fatalf("offset %d: merge differs from the single-process run", k)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if j := readFile(t, path); !bytes.Equal(j, full) {
			t.Fatalf("offset %d: finished journal differs from the uncut one", k)
		}
	}

	for k := batchStart; k <= len(full); k++ {
		write := func() {
			if err := os.WriteFile(path, full[:k], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write()
		open(k)
		if boots[k] {
			write()
			boot(k)
		}
	}
}

// FuzzReportBody posts arbitrary bytes to the results endpoint against
// a live lease on shard [0,4) whose job 0 is already ingested. The
// handler must not panic; a refused report leaves the journal and the
// done count untouched (all or nothing), and an accepted one appends
// exactly the canonical lines of its first copies of not-yet-done jobs,
// leaving a journal that campaign.OpenJournal reopens. The seed corpus
// in testdata/fuzz/FuzzReportBody holds valid, duplicate, fenced,
// out-of-range, foreign-seed and malformed bodies for lease l000000,
// the first lease a fresh coordinator grants.
func FuzzReportBody(f *testing.F) {
	spec := campaign.Spec{Name: "fuzz", Kind: "toy", Seed: 11, Trials: 8}
	res := execute(spec)
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		l := srv.Acquire("fuzz").Lease
		if err := srv.Ingest(l.ID, res[:1]); err != nil {
			t.Fatal(err)
		}
		path := campaignJournal(dir, resp.ID)
		before := readFile(t, path)
		stBefore, _ := srv.Status(resp.ID)

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, campaignd.PathResults, bytes.NewReader(body)))
		after := readFile(t, path)
		st, _ := srv.Status(resp.ID)
		if rec.Code != http.StatusOK {
			if !bytes.Equal(after, before) || st.Done != stBefore.Done {
				t.Fatalf("refused report (%d %s) committed: done %d → %d, journal grew by %d bytes",
					rec.Code, bytes.TrimSpace(rec.Body.Bytes()), stBefore.Done, st.Done, len(after)-len(before))
			}
			return
		}
		var req campaignd.ReportRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		seen := map[int]bool{0: true}
		var want []byte
		for _, r := range req.Results {
			if seen[r.Job] {
				continue
			}
			seen[r.Job] = true
			line, err := campaign.CanonicalLine(r)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, line...)
		}
		if !bytes.HasPrefix(after, before) || !bytes.Equal(after[len(before):], want) {
			t.Fatalf("accepted report appended\n%s\nwant the encoder's lines\n%s", after[len(before):], want)
		}
		if st.Done != len(seen) {
			t.Fatalf("accepted report: done = %d, want %d", st.Done, len(seen))
		}
		j, _, err := campaign.OpenJournal(path, spec)
		if err != nil {
			t.Fatalf("accepted report left a journal that does not reopen: %v", err)
		}
		j.Close()
	})
}
