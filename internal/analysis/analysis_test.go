package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// The fixture harness is a hand-rolled analysistest: each package under
// testdata/src is loaded standalone, analyzed, and its findings matched
// against `// want "regexp"` marker comments. A finding matches a want
// on the same file and line whose pattern matches "func rule: message"
// (func is the enclosing function, "" at package scope);
// unmatched wants and unexpected findings both fail. A comment may
// carry several quoted patterns (`// want "a" "b"`) for lines that
// produce several findings.

var wantRE = regexp.MustCompile(`"([^"]+)"`)
var wantLineRE = regexp.MustCompile(`//\s*want "`)

type wantMark struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, pkg *Package) []*wantMark {
	t.Helper()
	var wants []*wantMark
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !wantLineRE.MatchString(c.Text) {
					continue
				}
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &wantMark{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func runFixture(t *testing.T, name string, cfg Config) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	w, pkg, err := LoadPackageDir(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	findings := Analyze(w, w.Pkgs, cfg)
	for _, f := range findings {
		matched := false
		for _, want := range wants {
			if !want.hit && want.file == f.File && want.line == f.Line &&
				want.re.MatchString(f.Func+" "+f.Rule+": "+f.Message) {
				want.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, want := range wants {
		if !want.hit {
			t.Errorf("%s:%d: expected a finding matching %q, got none", want.file, want.line, want.re)
		}
	}
}

func TestLeakTableFixture(t *testing.T) { runFixture(t, "leaktable", Config{}) }

func TestCleanBitslicedFixture(t *testing.T) { runFixture(t, "cleanbits", Config{}) }

func TestSuppressionFixture(t *testing.T) { runFixture(t, "suppress", Config{}) }

func TestSuppressionEdgeFixture(t *testing.T) { runFixture(t, "suppressedge", Config{}) }

func TestGeometryFixture(t *testing.T) {
	runFixture(t, "geom", Config{Quant: true, QuantLineBytes: 1})
}

func TestTaintFlowFixture(t *testing.T) { runFixture(t, "taintflow", Config{}) }

func TestSecretBranchFixture(t *testing.T) { runFixture(t, "branch", Config{}) }

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determin", Config{DeterministicPkgs: []string{"determin"}})
}

// TestGenericReceiverFixture: findings inside methods on generic types
// are keyed by the receiver type name whatever the number of type
// parameters, so baseline identity survives a second type parameter.
func TestGenericReceiverFixture(t *testing.T) {
	runFixture(t, "generic", Config{DeterministicPkgs: []string{"generic"}})
}

// TestDeterminismScopedToCore: the same fixture outside the configured
// deterministic core produces nothing.
func TestDeterminismScopedToCore(t *testing.T) {
	w, _, err := LoadPackageDir(filepath.Join("testdata", "src", "determin"), "determin")
	if err != nil {
		t.Fatal(err)
	}
	if fs := Analyze(w, w.Pkgs, Config{}); len(fs) != 0 {
		t.Fatalf("determinism rules fired outside the deterministic core: %v", fs)
	}
}

// TestRuleFilter: Config.Rules restricts emission.
func TestRuleFilter(t *testing.T) {
	w, _, err := LoadPackageDir(filepath.Join("testdata", "src", "branch"), "branch")
	if err != nil {
		t.Fatal(err)
	}
	fs := Analyze(w, w.Pkgs, Config{Rules: []string{"secret-index"}})
	for _, f := range fs {
		if f.Rule != "secret-index" {
			t.Fatalf("rule filter leaked %s", f)
		}
	}
	if len(fs) != 0 {
		t.Fatalf("branch fixture has no secret-index sites, got %v", fs)
	}
}

// TestModuleWideInvariants loads the real module and pins the
// acceptance criteria of the analyzer itself: the table-based S-box
// paths are flagged, the bitsliced implementation and the attack-side
// packages are clean.
func TestModuleWideInvariants(t *testing.T) {
	w, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	findings := Analyze(w, w.Pkgs, Config{DeterministicPkgs: DefaultDeterministicPkgs()})

	perFile := map[string][]Finding{}
	for _, f := range findings {
		rel, err := filepath.Rel(w.Root, f.File)
		if err != nil {
			t.Fatal(err)
		}
		perFile[filepath.ToSlash(rel)] = append(perFile[filepath.ToSlash(rel)], f)
	}

	countRule := func(file, rule string) int {
		n := 0
		for _, f := range perFile[file] {
			if f.Rule == rule {
				n++
			}
		}
		return n
	}

	// The table S-box paths must be flagged.
	if n := countRule("internal/gift/gift64.go", "secret-index"); n < 3 {
		t.Errorf("gift64.go: %d secret-index findings, want ≥ 3 (SubCells64, InvSubCells64, EncryptTraced)", n)
	}
	if n := countRule("internal/gift/gift128.go", "secret-index"); n < 1 {
		t.Errorf("gift128.go: %d secret-index findings, want ≥ 1 (EncryptTraced)", n)
	}
	if n := countRule("internal/present/present.go", "secret-index"); n < 3 {
		t.Errorf("present.go: %d secret-index findings, want ≥ 3 (SubCells, InvSubCells, key schedule)", n)
	}
	if n := countRule("internal/victim/victim.go", "secret-index"); n < 1 {
		t.Errorf("victim.go: %d secret-index findings, want ≥ 1 (Encrypt lookup loop)", n)
	}
	if n := countRule("internal/cofb/cofb.go", "secret-branch"); n < 1 {
		t.Errorf("cofb.go: %d secret-branch findings, want ≥ 1 (GF-doubling carry)", n)
	}

	// The bitsliced implementation must be clean — it is the
	// constant-time countermeasure the flagged paths are compared against.
	if fs := perFile["internal/gift/bitsliced.go"]; len(fs) != 0 {
		t.Errorf("bitsliced.go must be clean, got %v", fs)
	}

	// Attack-side packages operate on attacker-observable data only.
	for _, f := range findings {
		rel, _ := filepath.Rel(w.Root, f.File)
		for _, clean := range []string{"internal/core/", "internal/countermeasure/"} {
			if filepath.ToSlash(rel) != "" && len(rel) > len(clean) && filepath.ToSlash(rel)[:len(clean)] == clean {
				t.Errorf("attack-side file flagged: %s", f)
			}
		}
	}
}
