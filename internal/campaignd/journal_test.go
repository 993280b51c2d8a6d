package campaignd_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
)

// finish drives every pending shard of a coordinator to completion
// with precomputed results, as one worker reporting each shard whole.
func finish(t *testing.T, srv *campaignd.Server, res []campaign.Result) {
	t.Helper()
	for {
		l := srv.Acquire("w").Lease
		if l == nil {
			return
		}
		if err := srv.Ingest(l.ID, res[l.Start:l.End]); err != nil {
			t.Fatal(err)
		}
		if err := srv.Complete(l.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartWithAnotherShardSize: a coordinator restarted with a
// different default shard size re-partitions its campaigns. It must
// boot, keep every ingested job done, and merge to the bytes of a
// single-process run.
func TestRestartWithAnotherShardSize(t *testing.T) {
	spec := campaign.Spec{Name: "reshard", Kind: "toy", Seed: 9, Trials: 20}
	res := execute(spec)
	wantJSONL, _ := referenceBytes(t, spec)
	dir := t.TempDir()

	srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	l := srv.Acquire("w").Lease
	if l == nil || l.Start != 0 || l.End != 4 {
		t.Fatalf("lease = %+v, want shard [0,4)", l)
	}
	if err := srv.Ingest(l.ID, res[:3]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err = campaignd.NewServer(campaignd.Options{DataDir: dir, ShardSize: 8})
	if err != nil {
		t.Fatalf("restart with shard size 8: %v", err)
	}
	defer srv.Close()
	st, ok := srv.Status(resp.ID)
	if !ok {
		t.Fatalf("campaign %s not recovered", resp.ID)
	}
	if st.Done != 3 || len(st.Shards) != 3 {
		t.Fatalf("recovered done=%d in %d shards, want 3 in 3", st.Done, len(st.Shards))
	}
	l = srv.Acquire("w").Lease
	if l == nil || l.Start != 0 || l.End != 8 || len(l.DoneJobs) != 3 {
		t.Fatalf("re-issued lease = %+v, want shard [0,8) with 3 jobs done", l)
	}
	if err := srv.Ingest(l.ID, res[:8]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Complete(l.ID); err != nil {
		t.Fatal(err)
	}
	finish(t, srv, res)
	got, err := srv.Output(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL) {
		t.Fatal("merge after a shard-size change differs from the single-process run")
	}
}

// TestSubmitOpensOneFile: a submit holds at most one file open for
// the campaign's lifetime, however many shards it has, and its
// directory holds campaign.json and the one campaign journal.
func TestSubmitOpensOneFile(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(entries)
	}
	before := fds()
	dir := t.TempDir()
	srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := campaign.Spec{Name: "fds", Kind: "toy", Seed: 1, Trials: 3000}
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Shards != 3000 {
		t.Fatalf("submit made %d shards, want 3000", resp.Shards)
	}
	if after := fds(); after > before+1 {
		t.Fatalf("a 3000-shard submit took the process from %d to %d open files", before, after)
	}
	entries, err := os.ReadDir(filepath.Join(dir, resp.ID))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"campaign.journal", "campaign.json"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("campaign directory holds %v, want %v", names, want)
	}
}

// TestRunResumesCoordinatorJournal: a coordinator's campaign journal is
// cmd/campaign's checkpoint format. campaign.Run resumes it, skipping
// exactly the jobs the coordinator ingested, and writes the bytes of
// an uninterrupted single-process run.
func TestRunResumesCoordinatorJournal(t *testing.T) {
	spec := toySpec(2)
	res := execute(spec)
	wantJSONL, wantCSV := referenceBytes(t, spec)
	dir := t.TempDir()
	srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ingested := 0
	for _, n := range []int{4, 3} { // one whole shard, then part of one
		l := srv.Acquire("w").Lease
		if err := srv.Ingest(l.ID, res[l.Start:l.Start+n]); err != nil {
			t.Fatal(err)
		}
		ingested += n
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	var jl, cs bytes.Buffer
	rep, err := campaign.Run(context.Background(), spec, toyExec, campaign.Options{
		Workers: 2,
		Journal: campaignJournal(dir, resp.ID),
		Sinks:   []campaign.Sink{&campaign.JSONLSink{W: &jl}, &campaign.CSVSink{W: &cs}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != ingested || rep.Executed != len(res)-ingested {
		t.Fatalf("resume skipped %d and executed %d, want %d and %d", rep.Skipped, rep.Executed, ingested, len(res)-ingested)
	}
	if !bytes.Equal(jl.Bytes(), wantJSONL) || !bytes.Equal(cs.Bytes(), wantCSV) {
		t.Fatal("run resumed from a coordinator journal differs from an uninterrupted run")
	}
}
