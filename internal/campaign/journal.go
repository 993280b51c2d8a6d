package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalHeader is the first line of a journal file. It pins the
// journal to one campaign: a resume against a journal whose fingerprint
// does not match the spec is an error, because job indices would then
// refer to different grid points.
type journalHeader struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Jobs        int    `json:"jobs"`
}

// Journal is the append-only checkpoint file of a campaign run. Every
// completed job is recorded as one JSON line (the same Result record
// the sinks receive, timing included); on resume the journal is read
// back and the recorded jobs are not re-executed. Appends are flushed
// line-by-line so an interrupted run loses at most the in-flight jobs;
// a torn final line from a hard kill is detected, ignored and cut off
// on load.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string
}

// OpenJournal opens (or creates) the journal at path for the given
// spec and returns the results it already holds, keyed by job index.
// An existing journal must carry the spec's fingerprint.
func OpenJournal(path string, spec Spec) (*Journal, map[int]Result, error) {
	prior := make(map[int]Result)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// Fresh journal: write the header.
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: creating journal: %w", err)
		}
		j := &Journal{f: f, w: bufio.NewWriter(f), path: path}
		hdr := journalHeader{Campaign: spec.Name, Fingerprint: spec.Fingerprint(), Jobs: spec.NumJobs()}
		if err := j.appendJSON(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, prior, nil
	case err != nil:
		return nil, nil, fmt.Errorf("campaign: reading journal: %w", err)
	}

	// Existing journal: validate the header and load completed jobs. A
	// record is committed only with its newline, so a final line
	// without one is a torn append from a hard kill: its job re-runs,
	// and the fragment is cut off below before anything is appended.
	complete := bytes.LastIndexByte(data, '\n') + 1
	lines := splitLines(data[:complete])
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("campaign: journal %s is empty (no header)", path)
	}
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, nil, fmt.Errorf("campaign: journal %s has a corrupt header: %w", path, err)
	}
	if want := spec.Fingerprint(); hdr.Fingerprint != want {
		return nil, nil, fmt.Errorf("campaign: journal %s belongs to campaign %q (fingerprint %s, want %s); refusing to resume a different grid",
			path, hdr.Campaign, hdr.Fingerprint, want)
	}
	for _, line := range lines[1:] {
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			// A corrupt complete line: its job re-runs.
			continue
		}
		prior[r.Job] = r
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: reopening journal: %w", err)
	}
	// Without the cut, the next record would be glued onto the torn
	// fragment and lost on the following resume.
	if err := f.Truncate(int64(complete)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: truncating torn journal tail: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f), path: path}, prior, nil
}

// Append records one completed job and flushes it to the OS.
func (j *Journal) Append(r Result) error {
	return j.appendJSON(r)
}

func (j *Journal) appendJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("campaign: appending to journal: %w", err)
	}
	return j.w.Flush()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// splitLines splits on '\n', dropping a trailing empty slice. A final
// line without a newline is kept (OpenJournal cuts torn tails off
// before splitting).
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
