package campaignd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"grinch/internal/campaign"
)

// The on-disk layout under the server's data directory:
//
//	<data>/<campaign-id>/campaign.json     — the SubmitRequest, replayable
//	<data>/<campaign-id>/shard-<n>.journal — one shard's result journal
//	<data>/<campaign-id>/<out>, <csv>      — merged output (paths from the submit)
//
// A shard journal is the distributed analogue of cmd/campaign's
// checkpoint journal: a header line pinning (campaign fingerprint,
// shard range), then one canonical campaign.Result JSON line per
// ingested job. Because results are pure functions of (spec, index),
// journal lines never need rewriting — re-ingestion after a lease
// re-issue is dropped as a duplicate, and a torn trailing line from a
// server kill is detected, ignored and cut off on reload exactly as in
// internal/campaign.
//
// Restart recovery: LoadState replays campaign.json + the shard
// journals of every campaign directory, so a coordinator restart
// resumes every campaign mid-shard with nothing lost but unreported
// in-flight work on the workers (which re-executes — deterministically
// — under fresh leases).

// shardJournalHeader pins a journal file to one (campaign, shard).
type shardJournalHeader struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Shard       int    `json:"shard"`
	Start       int    `json:"start"`
	End         int    `json:"end"`
}

// shardJournal appends canonical results for one shard to disk. A nil
// *shardJournal (memory-only server) is valid and appends nowhere.
type shardJournal struct {
	f    *os.File
	path string
}

func shardJournalPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", shard))
}

// openShardJournal opens (creating if absent) the journal for one
// shard and returns the results it already holds, keyed by job index.
func openShardJournal(dir, campaignID, fingerprint string, rng ShardRange) (*shardJournal, map[int]campaign.Result, error) {
	path := shardJournalPath(dir, rng.Shard)
	prior := make(map[int]campaign.Result)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("campaignd: creating shard journal: %w", err)
		}
		j := &shardJournal{f: f, path: path}
		hdr := shardJournalHeader{Campaign: campaignID, Fingerprint: fingerprint,
			Shard: rng.Shard, Start: rng.Start, End: rng.End}
		if err := j.appendJSON(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, prior, nil
	case err != nil:
		return nil, nil, fmt.Errorf("campaignd: reading shard journal: %w", err)
	}

	// A final line without its newline is a torn append from a server
	// kill: its job re-runs, and the fragment is cut off below before
	// anything is appended.
	complete := bytes.LastIndexByte(data, '\n') + 1
	lines := splitLines(data[:complete])
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("campaignd: shard journal %s is empty (no header)", path)
	}
	var hdr shardJournalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, nil, fmt.Errorf("campaignd: shard journal %s has a corrupt header: %w", path, err)
	}
	if hdr.Fingerprint != fingerprint || hdr.Shard != rng.Shard || hdr.Start != rng.Start || hdr.End != rng.End {
		return nil, nil, fmt.Errorf("campaignd: shard journal %s belongs to a different campaign or shard (fingerprint %s shard %d [%d,%d), want %s shard %d [%d,%d))",
			path, hdr.Fingerprint, hdr.Shard, hdr.Start, hdr.End, fingerprint, rng.Shard, rng.Start, rng.End)
	}
	for _, line := range lines[1:] {
		var r campaign.Result
		if err := json.Unmarshal(line, &r); err != nil {
			// A corrupt complete line: its job re-runs.
			continue
		}
		if rng.Contains(r.Job) {
			prior[r.Job] = r.Canonical()
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaignd: reopening shard journal: %w", err)
	}
	// Without the cut, the next record would be glued onto the torn
	// fragment and lost on the following reload.
	if err := f.Truncate(int64(complete)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaignd: truncating torn shard journal tail: %w", err)
	}
	return &shardJournal{f: f, path: path}, prior, nil
}

// Append records one canonical result. Nil receivers (memory-only
// mode) accept and drop.
func (j *shardJournal) Append(r campaign.Result) error {
	if j == nil {
		return nil
	}
	return j.appendJSON(r)
}

func (j *shardJournal) appendJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("campaignd: appending to shard journal: %w", err)
	}
	return nil
}

// Close closes the journal file. Nil-safe.
func (j *shardJournal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}

// splitLines splits on '\n', keeping a newline-less final line
// (openShardJournal cuts torn tails off before splitting) — the same
// convention as internal/campaign's journal reader.
func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}

// saveSubmit persists the campaign's submit request so a restarted
// server can rebuild the shard table (a pure function of the spec).
func saveSubmit(dir string, req SubmitRequest) error {
	b, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "campaign.json"), append(b, '\n'), 0o644)
}

// loadSubmit reads a persisted submit request back.
func loadSubmit(dir string) (SubmitRequest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return SubmitRequest{}, err
	}
	var req SubmitRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return SubmitRequest{}, fmt.Errorf("campaignd: corrupt campaign.json in %s: %w", dir, err)
	}
	return req, nil
}

// listCampaignDirs returns the campaign subdirectories of the data
// directory in lexical order (IDs are zero-padded, so lexical order is
// submission order).
func listCampaignDirs(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
