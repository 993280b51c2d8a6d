package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// journalHeader is the first line of a campaign journal. It pins the
// journal to one campaign: a resume against a journal written for
// another spec is an error, because job indices would then refer to
// different grid points. Campaign and Jobs are functions of the spec,
// so comparing whole headers compares fingerprints.
type journalHeader struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Jobs        int    `json:"jobs"`
}

// Journal is an append-only, header-pinned checkpoint log of Results:
// the checkpoint of a Run and of a campaignd campaign, one file per
// campaign in either case, so a Run can resume a coordinator's journal.
// The first line is the header; every completed job is recorded as its
// canonical line (CanonicalLine, the bytes the untimed JSONL sink
// writes). Records are keyed by job index alone. On resume the log is
// read back and the recorded jobs are not re-executed. Each append —
// one record or one batch — is a single write, so an interrupted run
// loses at most the in-flight jobs; a torn final line from a hard kill
// is detected, ignored and cut off on load.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (or creates) the journal at path for the given
// spec and returns the results it already holds, keyed by job index.
// An existing journal whose header line does not carry the spec's
// name, fingerprint and grid size is refused.
//
// A record is committed only with its newline. A final line without
// one is a torn append: its job re-runs, and the fragment is cut off
// before anything is appended, or the next record would be glued onto
// it and lost on the following resume. A journal with no complete line
// at all was torn inside its header — no record can precede the
// header — so it is started afresh. A complete line that does not
// decode is not a crash artifact but corruption, and is an error; so
// is one that decodes to no job of the grid: a job index outside
// [0, jobs), or a seed other than that job's derived seed (`null` and
// `{}` decode to job 0 with seed 0).
func OpenJournal(path string, spec Spec) (*Journal, map[int]Result, error) {
	hdr := journalHeader{Campaign: spec.Name, Fingerprint: spec.Fingerprint(), Jobs: spec.NumJobs()}
	return openJournal(path, hdr, func(job int) uint64 { return DeriveSeed(spec.Seed, job) })
}

// openJournal is OpenJournal for a header and the grid's seed of each
// job index in [0, hdr.Jobs).
func openJournal(path string, hdr journalHeader, seed func(job int) uint64) (_ *Journal, _ map[int]Result, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: opening journal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	complete := bytes.LastIndexByte(data, '\n') + 1
	lines := splitLines(data[:complete])
	prior := make(map[int]Result)
	if len(lines) > 0 {
		var got journalHeader
		if err := json.Unmarshal(lines[0], &got); err != nil {
			return nil, nil, fmt.Errorf("campaign: journal %s has a corrupt header: %w", path, err)
		}
		if got != hdr {
			return nil, nil, fmt.Errorf("campaign: journal %s is pinned to %+v, want %+v; refusing to resume a different grid",
				path, got, hdr)
		}
		for i, line := range lines[1:] {
			var r Result
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, nil, fmt.Errorf("campaign: journal %s line %d is corrupt: %w", path, i+2, err)
			}
			if r.Job < 0 || r.Job >= hdr.Jobs {
				return nil, nil, fmt.Errorf("campaign: journal %s line %d is corrupt: job %d is outside the grid's %d jobs", path, i+2, r.Job, hdr.Jobs)
			}
			if want := seed(r.Job); r.Seed != want {
				return nil, nil, fmt.Errorf("campaign: journal %s line %d is corrupt: job %d has seed %d, the grid's is %d", path, i+2, r.Job, r.Seed, want)
			}
			prior[r.Job] = r
		}
	}
	if err := f.Truncate(int64(complete)); err != nil {
		return nil, nil, fmt.Errorf("campaign: truncating torn journal tail: %w", err)
	}
	j := &Journal{f: f}
	if len(lines) == 0 {
		if err := j.appendJSON(hdr); err != nil {
			return nil, nil, err
		}
	}
	return j, prior, nil
}

// Append records one completed job's canonical line (CanonicalLine)
// with a single write.
func (j *Journal) Append(r Result) error {
	line, err := CanonicalLine(r)
	if err != nil {
		return err
	}
	return j.write(line)
}

// AppendBatch records already encoded canonical lines (CanonicalLine)
// with a single write, so a batch costs one system call. A crash
// inside that write leaves a prefix of the lines committed: load keeps
// every record whose newline landed and cuts off the torn one.
func (j *Journal) AppendBatch(lines [][]byte) error {
	return j.write(bytes.Join(lines, nil))
}

func (j *Journal) appendJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return j.write(append(b, '\n'))
}

func (j *Journal) write(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("campaign: appending to journal: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// splitLines splits newline-terminated data into its lines.
func splitLines(data []byte) [][]byte {
	lines := bytes.Split(data, []byte{'\n'})
	return lines[:len(lines)-1]
}
