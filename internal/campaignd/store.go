package campaignd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The on-disk layout under the server's data directory:
//
//	<data>/<campaign-id>/campaign.json    — the SubmitRequest, replayable
//	<data>/<campaign-id>/campaign.journal — the campaign's result journal
//	<data>/<campaign-id>/<out>, <csv>     — merged output (paths from the submit)
//
// The journal is a campaign.Journal opened with campaign.OpenJournal:
// the same code, header line (campaign name, fingerprint, grid size)
// and canonical result lines as cmd/campaign's checkpoint, so
// cmd/campaign -journal can resume a coordinator's journal. One file
// holds every shard's results; each record is keyed by its job
// index, not by shard. Because results are pure functions of (spec,
// index), journal lines never need rewriting: re-ingestion after a
// lease re-issue is dropped as a duplicate, and a torn trailing line
// from a server kill is cut off on reload.
//
// campaign.json is written to a temporary file and renamed into place,
// so a campaign directory either holds the whole submit or none of it.
// A directory without one belongs to a Submit that never returned an
// ID, and recovery skips it.
//
// Restart recovery: recover replays campaign.json and the journal of
// every campaign directory, routing each record to the shard that
// contains its job index, so a coordinator restart resumes every
// campaign mid-shard — under any shard size — with nothing lost but
// unreported in-flight work on the workers (which re-executes —
// deterministically — under fresh leases).

// journalFile is the name of a campaign's journal in its directory.
const journalFile = "campaign.journal"

// saveSubmit persists the campaign's submit request so a restarted
// server can rebuild the shard table (a pure function of the spec).
func saveSubmit(dir string, req SubmitRequest) error {
	b, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "campaign.json.tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "campaign.json"))
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
