package analysis

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The baseline is the committed ledger of accepted findings — in this
// repository, the deliberately leaky table implementations that the
// GRINCH attack needs to exist. grinchvet exits nonzero on any finding
// *not* in the baseline, so a new leaky lookup or wall-clock dependency
// fails the build while the known attack surface stays green.
//
// Format: one tab-separated record per line, sorted,
//
//	rule<TAB>file<TAB>func<TAB>detail
//
// deliberately *without* line numbers, so unrelated edits that shift
// code do not invalidate the ledger. Identical records may repeat: the
// comparison is a multiset match, so even adding a second lookup that
// produces an identical key is caught.
//
// The v2 format (written by -quant -write-baseline) appends a fifth,
// informational column carrying the quantitative leakage estimate:
//
//	rule<TAB>file<TAB>func<TAB>detail<TAB>entries=16 bytes=1 lines=16 bits=4.00
//
// The quant column is NOT part of the identity: matching still uses
// the first four fields only, so a model recalibration never
// invalidates the ledger, and v1 files keep parsing unchanged.
//
// The header block runs to the first blank line. After it, a run of
// "#" lines is the note of the entries that follow it, up to the next
// blank line. A deadexport entry must carry a note — the reason the
// unused export stays — and WriteBaseline keeps every note with its
// entries.

// BaselineKey is the stable identity of a finding.
func BaselineKey(root string, f Finding) string {
	file := f.File
	if root != "" {
		if rel, err := filepath.Rel(root, f.File); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return strings.Join([]string{f.Rule, file, f.Func, f.Detail}, "\t")
}

// ReadBaseline loads a baseline file into a key -> count multiset.
func ReadBaseline(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBaseline(f)
}

func parseBaseline(r io.Reader) (map[string]int, error) {
	set, notes, err := scanBaseline(r)
	if err != nil {
		return nil, err
	}
	for k := range set {
		if strings.HasPrefix(k, "deadexport\t") && notes[k] == "" {
			return nil, fmt.Errorf("analysis: baseline entry %q needs a # justification line above it", k)
		}
	}
	return set, nil
}

// scanBaseline reads the entries as a key -> count multiset and the
// note, if any, above each key.
func scanBaseline(r io.Reader) (set map[string]int, notes map[string]string, err error) {
	set, notes = map[string]int{}, map[string]string{}
	header, note, afterEntry := true, "", false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r")
		switch {
		case line == "":
			header, note, afterEntry = false, "", false
			continue
		case strings.HasPrefix(line, "#"):
			if !header {
				if afterEntry {
					note, afterEntry = "", false
				}
				note += line + "\n"
			}
			continue
		}
		key := line
		switch strings.Count(line, "\t") {
		case 3: // v1: rule, file, func, detail
		case 4: // v2: + informational quant column, dropped from the key
			key = line[:strings.LastIndex(line, "\t")]
		default:
			return nil, nil, fmt.Errorf("analysis: malformed baseline line %q (want rule\\tfile\\tfunc\\tdetail[\\tquant])", line)
		}
		set[key]++
		if note != "" {
			notes[key] = note
		}
		afterEntry = true
	}
	return set, notes, sc.Err()
}

// WriteBaseline writes the findings' keys as a sorted baseline file.
// Findings carrying quant estimates (a -quant run) are written in the
// v2 format with the informational fifth column. Notes of the file it
// replaces stay with their entries: unnoted entries follow the header,
// noted ones come after it in blocks under their notes.
func WriteBaseline(path, root string, findings []Finding) error {
	var notes map[string]string
	if f, err := os.Open(path); err == nil {
		_, notes, _ = scanBaseline(f)
		f.Close()
	}
	type entry struct{ key, line string }
	entries := make([]entry, 0, len(findings))
	for _, f := range findings {
		key := BaselineKey(root, f)
		line := key
		if f.Quant != nil {
			line += "\t" + f.Quant.BaselineColumn()
		}
		entries = append(entries, entry{key, line})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].line < entries[j].line })
	var b strings.Builder
	b.WriteString("# grinchvet baseline — accepted findings, one per line:\n")
	b.WriteString("# rule\tfile\tfunc\tdetail[\tquant]\n")
	b.WriteString("# Regenerate with: go run ./cmd/grinchvet -quant -write-baseline ./...\n")
	var noted []entry
	for _, e := range entries {
		if notes[e.key] != "" {
			noted = append(noted, e)
			continue
		}
		b.WriteString(e.line + "\n")
	}
	prev := ""
	for _, e := range noted {
		if n := notes[e.key]; n != prev {
			b.WriteString("\n" + n)
			prev = n
		}
		b.WriteString(e.line + "\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// Diff splits findings into new (not covered by the baseline) and
// returns the stale baseline entries (recorded but no longer produced).
// Coverage is multiset-style: N identical keys in the baseline cover at
// most N identical findings. Both outputs are deterministically
// ordered — fresh by (rule, pkg, func, detail, file, line), stale
// lexically (keys lead with the rule) — so CI mismatch logs are stable
// and diffable across runs.
func Diff(findings []Finding, baseline map[string]int, root string) (fresh []Finding, stale []string) {
	remaining := make(map[string]int, len(baseline))
	for k, n := range baseline {
		remaining[k] = n
	}
	for _, f := range findings {
		k := BaselineKey(root, f)
		if remaining[k] > 0 {
			remaining[k]--
			continue
		}
		fresh = append(fresh, f)
	}
	sort.Slice(fresh, func(i, j int) bool {
		a, b := fresh[i], fresh[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	for k, n := range remaining {
		for i := 0; i < n; i++ {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return fresh, stale
}
