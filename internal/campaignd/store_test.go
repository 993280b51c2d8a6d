package campaignd

import (
	"os"
	"reflect"
	"testing"

	"grinch/internal/campaign"
)

func testShardHeader(rng ShardRange) shardJournalHeader {
	return shardJournalHeader{Campaign: "c1", Fingerprint: "fp", Shard: rng.Shard, Start: rng.Start, End: rng.End}
}

// TestShardJournalTornTailResumesOnce: a shard journal reopened after a
// hard kill mid-append must cut the torn fragment off, so the re-ingested
// job's record lands on a line of its own and survives the next reload.
func TestShardJournalTornTailResumesOnce(t *testing.T) {
	dir := t.TempDir()
	rng := ShardRange{Shard: 0, Start: 0, End: 4}
	path := shardJournalPath(dir, rng.Shard)
	j, _, err := campaign.OpenLog(path, testShardHeader(rng))
	if err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 3; job++ {
		if err := j.Append(campaign.Result{Job: job}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// First resume: the torn job is missing and gets re-ingested.
	j, prior, err := campaign.OpenLog(path, testShardHeader(rng))
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("first resume holds %d results, want 2", len(prior))
	}
	if err := j.Append(campaign.Result{Job: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second resume: every job is recorded; nothing would re-execute.
	j, prior, err = campaign.OpenLog(path, testShardHeader(rng))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(prior) != 3 {
		t.Fatalf("second resume holds %d results, want 3 (the re-ingested record was lost)", len(prior))
	}
}

// TestShardJournalLoadsExistingFormat pins the on-disk format: a shard
// journal written in the established layout loads unchanged, and the
// next append adds exactly one canonical record line.
func TestShardJournalLoadsExistingFormat(t *testing.T) {
	const existing = `{"campaign":"c0001","fingerprint":"5a1f00c3b2e4d697","shard":1,"start":8,"end":16}
{"job":8,"point":{"kind":"toy","line_words":2,"probe_round":3,"trial":1},"seed":77,"encryptions":412,"correct":true}
{"job":9,"point":{"kind":"toy","line_words":2,"probe_round":3,"trial":2},"seed":78,"failed":true,"error":"toy: deterministic failure for seed 78"}
`
	dir := t.TempDir()
	rng := ShardRange{Shard: 1, Start: 8, End: 16}
	path := shardJournalPath(dir, rng.Shard)
	if err := os.WriteFile(path, []byte(existing), 0o644); err != nil {
		t.Fatal(err)
	}
	j, prior, err := campaign.OpenLog(path, shardJournalHeader{
		Campaign: "c0001", Fingerprint: "5a1f00c3b2e4d697", Shard: 1, Start: 8, End: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]campaign.Result{
		8: {Job: 8, Point: campaign.Point{Kind: "toy", LineWords: 2, ProbeRound: 3, Trial: 1}, Seed: 77,
			Measurement: campaign.Measurement{Encryptions: 412, Correct: true}},
		9: {Job: 9, Point: campaign.Point{Kind: "toy", LineWords: 2, ProbeRound: 3, Trial: 2}, Seed: 78,
			Failed: true, Err: "toy: deterministic failure for seed 78"},
	}
	if !reflect.DeepEqual(prior, want) {
		t.Fatalf("loaded %+v\nwant %+v", prior, want)
	}
	next := campaign.Result{Job: 10, Point: campaign.Point{Kind: "toy", LineWords: 2, ProbeRound: 3, Trial: 3}, Seed: 79,
		Measurement: campaign.Measurement{Encryptions: 300, DroppedOut: true}}
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
	wantBytes := existing + `{"job":10,"point":{"kind":"toy","line_words":2,"probe_round":3,"trial":3},"seed":79,"encryptions":300,"dropped_out":true}` + "\n"
	if string(got) != wantBytes {
		t.Fatalf("journal bytes changed:\n%s\nwant\n%s", got, wantBytes)
	}
}

// TestShardJournalRejectsOtherShard: a shard journal pinned to one
// (campaign, fingerprint, range) refuses to load for any other.
func TestShardJournalRejectsOtherShard(t *testing.T) {
	dir := t.TempDir()
	rng := ShardRange{Shard: 0, Start: 0, End: 4}
	path := shardJournalPath(dir, rng.Shard)
	j, _, err := campaign.OpenLog(path, testShardHeader(rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, other := range []shardJournalHeader{
		{Campaign: "c2", Fingerprint: "fp", Shard: 0, Start: 0, End: 4},
		{Campaign: "c1", Fingerprint: "fq", Shard: 0, Start: 0, End: 4},
		{Campaign: "c1", Fingerprint: "fp", Shard: 0, Start: 0, End: 5},
		{Campaign: "c1", Fingerprint: "fp", Shard: 1, Start: 0, End: 4},
	} {
		if j, _, err := campaign.OpenLog(path, other); err == nil {
			j.Close()
			t.Fatalf("journal pinned to %+v loaded as %+v", testShardHeader(rng), other)
		}
	}
}
