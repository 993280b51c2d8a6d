package campaignd

import (
	"os"
	"testing"

	"grinch/internal/campaign"
)

// TestShardJournalTornTailResumesOnce: a shard journal reopened after a
// hard kill mid-append must cut the torn fragment off, so the re-ingested
// job's record lands on a line of its own and survives the next reload.
func TestShardJournalTornTailResumesOnce(t *testing.T) {
	dir := t.TempDir()
	rng := ShardRange{Shard: 0, Start: 0, End: 4}
	j, _, err := openShardJournal(dir, "c1", "fp", rng)
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
	path := shardJournalPath(dir, rng.Shard)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// First resume: the torn job is missing and gets re-ingested.
	j, prior, err := openShardJournal(dir, "c1", "fp", rng)
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
	j, prior, err = openShardJournal(dir, "c1", "fp", rng)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(prior) != 3 {
		t.Fatalf("second resume holds %d results, want 3 (the re-ingested record was lost)", len(prior))
	}
}
