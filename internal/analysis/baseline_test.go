package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fnd(rule, file, fn, detail string) Finding {
	return Finding{Rule: rule, Severity: SeverityError, File: file, Func: fn, Detail: detail, Message: "m"}
}

func TestBaselineRoundTrip(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "grinchvet.baseline")
	findings := []Finding{
		fnd("secret-index", filepath.Join(root, "a/b.go"), "SubCells", "sbox"),
		fnd("secret-branch", filepath.Join(root, "c.go"), "double", `"carry != 0"`),
		fnd("secret-index", filepath.Join(root, "a/b.go"), "SubCells", "sbox"), // duplicate key
	}
	if err := WriteBaseline(path, root, findings); err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base["secret-index\ta/b.go\tSubCells\tsbox"] != 2 {
		t.Fatalf("duplicate key not preserved as multiset: %v", base)
	}
	fresh, stale := Diff(findings, base, root)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Fatalf("round-trip not clean: fresh=%v stale=%v", fresh, stale)
	}
}

func TestBaselineDiffFreshAndStale(t *testing.T) {
	root := t.TempDir()
	base := map[string]int{
		"secret-index\ta.go\tF\tsbox":     1,
		"wallclock\tgone.go\tG\ttime.Now": 1,
	}
	findings := []Finding{
		fnd("secret-index", filepath.Join(root, "a.go"), "F", "sbox"),  // baselined
		fnd("secret-index", filepath.Join(root, "a.go"), "F", "sbox"),  // second copy: fresh (multiset)
		fnd("secret-branch", filepath.Join(root, "b.go"), "H", "cond"), // fresh
	}
	fresh, stale := Diff(findings, base, root)
	if len(fresh) != 2 {
		t.Fatalf("want 2 fresh findings, got %v", fresh)
	}
	if len(stale) != 1 || !strings.HasPrefix(stale[0], "wallclock\t") {
		t.Fatalf("want the wallclock entry stale, got %v", stale)
	}
}

func TestBaselineRejectsMalformedLine(t *testing.T) {
	if _, err := parseBaseline(strings.NewReader("only\ttwo\tfields\n")); err == nil {
		t.Fatal("malformed baseline accepted")
	}
}

func TestBaselineKeyRelativizesInsideRoot(t *testing.T) {
	root := t.TempDir()
	f := fnd("secret-index", filepath.Join(root, "internal", "gift", "gift64.go"), "SubCells64", "SBox")
	if got := BaselineKey(root, f); got != "secret-index\tinternal/gift/gift64.go\tSubCells64\tSBox" {
		t.Fatalf("key = %q", got)
	}
	outside := fnd("secret-index", "/elsewhere/x.go", "F", "d")
	if got := BaselineKey(root, outside); !strings.Contains(got, "/elsewhere/x.go") {
		t.Fatalf("file outside root must stay absolute, got %q", got)
	}
}

// TestBaselineDeadExportNeedsNote: a deadexport entry is accepted only
// under a # note past the header block, and rewriting the baseline
// keeps each note with its entry.
func TestBaselineDeadExportNeedsNote(t *testing.T) {
	for _, bad := range []string{
		"# header\n\ndeadexport\tinternal/x.go\t\tfunc F\n",
		"# header\ndeadexport\tinternal/x.go\t\tfunc F\n",
		"# header\n\n# why\ndeadexport\tinternal/x.go\t\tfunc F\n\ndeadexport\tinternal/x.go\t\tfunc G\n",
	} {
		if _, err := parseBaseline(strings.NewReader(bad)); err == nil {
			t.Errorf("unjustified deadexport entry accepted:\n%s", bad)
		}
	}

	root := t.TempDir()
	path := filepath.Join(root, "grinchvet.baseline")
	note := "# kept: the fixture needs it\n"
	if err := os.WriteFile(path, []byte("# header\n\n"+note+"deadexport\tinternal/x.go\t\tfunc F\ndeadexport\tinternal/x.go\t\tfunc G\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := []Finding{
		fnd("deadexport", filepath.Join(root, "internal/x.go"), "", "func F"),
		fnd("deadexport", filepath.Join(root, "internal/x.go"), "", "func G"),
		fnd("secret-index", filepath.Join(root, "a.go"), "F", "sbox"),
	}
	if err := WriteBaseline(path, root, findings); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "\n" + note + "deadexport\tinternal/x.go\t\tfunc F\ndeadexport\tinternal/x.go\t\tfunc G\n"; !strings.HasSuffix(string(b), want) {
		t.Fatalf("rewritten baseline lost the note:\n%s", b)
	}
	base, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, stale := Diff(findings, base, root); len(fresh) != 0 || len(stale) != 0 {
		t.Fatalf("round trip not clean: fresh=%v stale=%v", fresh, stale)
	}
}
