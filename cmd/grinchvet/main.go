// Command grinchvet is the repository's static analyzer: it proves
// which cipher implementations perform secret-dependent memory accesses
// (the property the GRINCH attack exploits), polices the determinism
// contract of the campaign/simulation core, and flags exported
// internal/ symbols that no non-test code uses.
//
// Usage:
//
//	grinchvet [flags] [patterns]
//
//	go run ./cmd/grinchvet ./...            # whole module, text output
//	go run ./cmd/grinchvet -json ./...      # machine-readable findings
//	go run ./cmd/grinchvet ./internal/gift  # one package
//	go run ./cmd/grinchvet -quant -write-baseline ./...  # accept current findings
//	go run ./cmd/grinchvet -quant ./...     # findings + leakage budgets
//	go run ./cmd/grinchvet -quant-check trace.jsonl ./...  # model vs measurement
//
// -quant enables the quantitative leakage model: every leakage finding
// carries a bits-per-observation estimate derived from the indexed
// table's static geometry, and per-function/per-package leakage
// budgets are printed after the findings. -quant-check closes the
// loop: it folds a recorded attack trace (internal/obs JSONL), fits
// the measured bits-eliminated-per-observation from the survivor
// curves, and fails when measurement and static model diverge beyond
// -quant-tolerance.
//
// Exit status: 0 when every finding is covered by the baseline (or
// there are none) and any -quant-check passed, 1 when new findings
// exist or the quant check drifted, 2 on load/usage errors.
//
// The analyzer is stdlib-only (go/parser + go/types); it loads the
// module itself and never shells out to the go tool, so it runs
// identically in CI and offline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"grinch/internal/analysis"
	"grinch/internal/analysis/quantcheck"
	"grinch/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut       = flag.Bool("json", false, "emit findings as a JSON array")
		baselinePath  = flag.String("baseline", "", "baseline file gating the exit status (default: grinchvet.baseline at the module root, if present)")
		writeBaseline = flag.Bool("write-baseline", false, "write the current findings to the baseline file and exit 0")
		rules         = flag.String("rules", "", "comma-separated rule filter (default: all rules)")
		detPkgs       = flag.String("det", strings.Join(analysis.DefaultDeterministicPkgs(), ","), "comma-separated module-relative package trees bound by determinism rules")
		verbose       = flag.Bool("v", false, "list analyzed packages and baseline statistics")
		quant         = flag.Bool("quant", false, "attach quantitative leakage estimates to findings and print leakage budgets")
		quantLine     = flag.Int("quant-line", 0, fmt.Sprintf("modeled cache-line size in bytes for -quant (default %d, the paper's word-granular probe)", analysis.DefaultQuantLineBytes))
		quantCheck    = flag.String("quant-check", "", "attack trace (obs JSONL) to check against the static model; implies -quant")
		quantTol      = flag.Float64("quant-tolerance", quantcheck.DefaultTolerance, "max relative deviation between predicted and measured bits/observation for -quant-check")
	)
	flag.Parse()
	if *quantCheck != "" {
		*quant = true
	}

	world, err := analysis.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "grinchvet:", err)
		return 2
	}
	pkgs := world.Match(flag.Args())
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "grinchvet: no packages match", flag.Args())
		return 2
	}
	if *verbose {
		for _, p := range pkgs {
			fmt.Fprintln(os.Stderr, "analyzing", p.Path)
		}
	}

	cfg := analysis.Config{
		DeterministicPkgs: splitList(*detPkgs),
		Quant:             *quant,
		QuantLineBytes:    *quantLine,
	}
	if *rules != "" {
		cfg.Rules = splitList(*rules)
	}
	findings := analysis.Analyze(world, pkgs, cfg)

	// Resolve the baseline: explicit flag wins; otherwise the module
	// default applies when the file exists.
	bpath := *baselinePath
	if bpath == "" {
		def := filepath.Join(world.Root, "grinchvet.baseline")
		if _, err := os.Stat(def); err == nil {
			bpath = def
		}
	}

	if *writeBaseline {
		if bpath == "" {
			bpath = filepath.Join(world.Root, "grinchvet.baseline")
		}
		if err := analysis.WriteBaseline(bpath, world.Root, findings); err != nil {
			fmt.Fprintln(os.Stderr, "grinchvet:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "grinchvet: wrote %d finding(s) to %s\n", len(findings), bpath)
		return 0
	}

	fresh := findings
	var stale []string
	if bpath != "" {
		base, err := analysis.ReadBaseline(bpath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grinchvet:", err)
			return 2
		}
		fresh, stale = analysis.Diff(findings, base, world.Root)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		var payload any = findings
		if *quant {
			// In quant mode the JSON payload is an object so the
			// budgets travel with the findings.
			perFunc, perPkg := analysis.Budgets(findings)
			payload = struct {
				Findings []analysis.Finding   `json:"findings"`
				PerFunc  []analysis.BudgetRow `json:"budget_per_func"`
				PerPkg   []analysis.BudgetRow `json:"budget_per_pkg"`
			}{findings, perFunc, perPkg}
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(os.Stderr, "grinchvet:", err)
			return 2
		}
	} else {
		for _, f := range fresh {
			fmt.Println(f.String())
		}
		if *quant {
			if err := writeBudgets(os.Stdout, findings); err != nil {
				fmt.Fprintln(os.Stderr, "grinchvet:", err)
				return 2
			}
		}
	}

	// Stale entries are only meaningful when the whole module was
	// analyzed; a package subset legitimately misses the other
	// packages' baselined findings.
	if len(pkgs) == len(world.Pkgs) {
		for _, s := range stale {
			fmt.Fprintf(os.Stderr, "grinchvet: stale baseline entry (no longer produced): %s\n", strings.ReplaceAll(s, "\t", " | "))
		}
	} else {
		stale = nil
	}
	if *verbose || len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "grinchvet: %d finding(s), %d new, %d baselined, %d stale\n",
			len(findings), len(fresh), len(findings)-len(fresh), len(stale))
	}
	drift := false
	if *quantCheck != "" {
		ok, err := runQuantCheck(*quantCheck, *quantTol, world, findings, *jsonOut, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "grinchvet:", err)
			return 2
		}
		drift = !ok
	}
	if len(fresh) > 0 || drift {
		return 1
	}
	return 0
}

// writeBudgets renders the per-function and per-package leakage
// budgets of a quant run as text tables.
func writeBudgets(w io.Writer, findings []analysis.Finding) error {
	perFunc, perPkg := analysis.Budgets(findings)
	if len(perFunc) == 0 {
		return nil
	}
	render := func(title string, rows []analysis.BudgetRow, withFunc bool) error {
		fmt.Fprintf(w, "\n%s:\n", title)
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		if withFunc {
			fmt.Fprintln(tw, "PKG\tFUNC\tFINDINGS\tUNRESOLVED\tBITS/OBS")
		} else {
			fmt.Fprintln(tw, "PKG\tFINDINGS\tUNRESOLVED\tBITS/OBS")
		}
		for _, r := range rows {
			if withFunc {
				fn := r.Func
				if fn == "" {
					fn = "(package scope)"
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2f\n", r.Pkg, fn, r.Findings, r.Unresolved, r.Bits)
			} else {
				fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\n", r.Pkg, r.Findings, r.Unresolved, r.Bits)
			}
		}
		return tw.Flush()
	}
	if err := render("leakage budget per function", perFunc, true); err != nil {
		return err
	}
	return render("leakage budget per package", perPkg, false)
}

// runQuantCheck folds the trace and compares measured convergence to
// the static model. The table geometries come from the quant-enriched
// findings themselves — the check fails if the analyzer can no longer
// see or size a protocol table, which is exactly the drift it gates.
func runQuantCheck(path string, tol float64, world *analysis.World, findings []analysis.Finding, jsonOut, verbose bool) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	events, err := obs.ReadAll(f)
	if err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	geoms, err := quantGeometries(world.ModulePath, findings)
	if err != nil {
		return false, err
	}
	rep, err := quantcheck.Check(events, geoms, tol)
	if err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	out := io.Writer(os.Stdout)
	if jsonOut {
		// Keep stdout parseable: the comparison goes to stderr.
		out = os.Stderr
	}
	fmt.Fprintf(out, "\nquant-check %s (tolerance %.0f%%):\n", path, tol*100)
	if err := rep.WriteTable(out); err != nil {
		return false, err
	}
	if verbose {
		fmt.Fprintln(out)
		if err := rep.WriteSegments(out); err != nil {
			return false, err
		}
	}
	if !rep.OK() {
		fmt.Fprintln(os.Stderr, "grinchvet: quant-check FAILED — static leakage model and measured convergence disagree")
		return false, nil
	}
	return true, nil
}

// quantGeometries resolves each known cipher protocol's table geometry
// from the quant-enriched findings.
func quantGeometries(modulePath string, findings []analysis.Finding) (map[string]quantcheck.Geometry, error) {
	geoms := map[string]quantcheck.Geometry{}
	for _, proto := range quantcheck.Protocols() {
		pkg := proto.TablePkg
		if modulePath != "" {
			pkg = modulePath + "/" + proto.TablePkg
		}
		found := false
		for _, f := range findings {
			if f.Rule != "secret-index" || f.Pkg != pkg || f.Detail != proto.TableName || f.Quant == nil {
				continue
			}
			if !f.Quant.Resolved {
				return nil, fmt.Errorf("quant-check: %s table %s.%s found but geometry unresolved — annotate it with //grinch:geometry",
					proto.Cipher, pkg, proto.TableName)
			}
			geoms[proto.Cipher] = quantcheck.Geometry{
				Entries:    int(f.Quant.Entries),
				EntryBytes: int(f.Quant.EntryBytes),
			}
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("quant-check: no secret-index finding for the %s table (%s.%s) — static leakage pass lost the attack surface",
				proto.Cipher, pkg, proto.TableName)
		}
	}
	return geoms, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
