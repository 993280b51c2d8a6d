// Package analysis is grinchvet's analyzer framework: a small,
// stdlib-only (go/parser + go/ast + go/types) multi-pass static checker
// that turns three properties of this repository into machine-enforced
// invariants:
//
//   - Leakage. The GRINCH attack exists because table-based GIFT
//     performs secret-dependent memory accesses. The repo deliberately
//     carries both the leaky table implementation and the bitsliced
//     constant-time one; the leakage pass (secret-index, secret-branch)
//     proves statically which is which, by tainting values annotated
//     //grinch:secret and flagging array/slice indexing and branching
//     on tainted data.
//
//   - Determinism. The campaign orchestrator promises byte-identical
//     output for any worker count. The determinism pass (wallclock,
//     mathrand, maporder) forbids wall-clock reads, stdlib RNGs and
//     map-iteration ordering inside the deterministic core, so the
//     promise cannot rot silently.
//
//   - No dead code. internal/ is importable only from inside the module,
//     so an exported symbol there that no non-test file uses is code
//     nothing runs; the dead-export pass (deadexport) flags it.
//
// Findings carry file:line positions, a severity, and a stable key used
// by the committed baseline (grinchvet.baseline): known, accepted
// findings — the leaky implementations the attack needs — are recorded
// there, and anything new fails the build. Individual sites can be
// waived with a //grinchvet:ignore <rule> comment.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Severity ranks findings. Both severities gate the build when not in
// the baseline; the distinction is informational.
type Severity string

// Severity levels.
const (
	SeverityError   Severity = "error"
	SeverityWarning Severity = "warning"
)

// Finding is one rule violation at one source position.
type Finding struct {
	// Rule is the analyzer rule name (e.g. "secret-index").
	Rule string `json:"rule"`
	// Severity is error or warning.
	Severity Severity `json:"severity"`
	// Pkg is the import path of the offending package.
	Pkg string `json:"pkg"`
	// File is the path as the loader saw it; Line/Col are 1-based.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Func is the enclosing function ("" at package scope). Part of the
	// baseline key, so findings survive unrelated line drift.
	Func string `json:"func,omitempty"`
	// Detail is a short stable description of the offending expression
	// (e.g. the indexed table name). Part of the baseline key.
	Detail string `json:"detail,omitempty"`
	// Message is the full human-readable diagnostic.
	Message string `json:"message"`
	// Quant is the quantitative leakage estimate, attached to leakage
	// findings when Config.Quant is set (see quant.go).
	Quant *Quant `json:"quant,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Pass hands one type-checked package to an analyzer. Analyzers call
// Report for every violation; suppression and baseline filtering happen
// in the driver, not in the analyzers.
type Pass struct {
	World  *World
	Pkg    *Package
	Config Config

	findings *[]Finding
}

// Report records a finding at the given node. fn is the enclosing
// function name ("" for package scope), detail the stable short form.
// The returned pointer lets the caller attach optional fields (Quant);
// it is invalidated by the next Report call, so use it immediately.
func (p *Pass) Report(rule string, sev Severity, node ast.Node, fn, detail, message string) *Finding {
	pos := p.Pkg.Fset.Position(node.Pos())
	*p.findings = append(*p.findings, Finding{
		Rule:     rule,
		Severity: sev,
		Pkg:      p.Pkg.Path,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Func:     fn,
		Detail:   detail,
		Message:  message,
	})
	return &(*p.findings)[len(*p.findings)-1]
}

// Analyzer is one registered pass.
type Analyzer struct {
	// Name is the rule-family name shown in -rules listings.
	Name string
	// Doc is a one-line description.
	Doc string
	// Rules lists the rule names this analyzer can emit (for ignore
	// validation and documentation).
	Rules []string
	// Run analyzes one package.
	Run func(*Pass)
}

// Registry returns the built-in analyzers in execution order.
func Registry() []*Analyzer {
	return []*Analyzer{
		LeakageAnalyzer(),
		DeterminismAnalyzer(),
		DeadExportAnalyzer(),
	}
}

// Config steers an analysis run.
type Config struct {
	// DeterministicPkgs are import-path prefixes (after the module
	// path, e.g. "internal/sim") whose packages must obey the
	// determinism rules. An entry matches the package itself and any
	// package below it.
	DeterministicPkgs []string
	// Rules restricts emission to the named rules; empty means all.
	Rules []string
	// Quant enables the quantitative leakage model: leakage findings
	// carry bits-per-observation estimates (see quant.go).
	Quant bool
	// QuantLineBytes is the modeled cache-line size in bytes for the
	// quant model; 0 means DefaultQuantLineBytes.
	QuantLineBytes int
}

// DefaultDeterministicPkgs lists the package trees (module-relative)
// bound by the determinism rules in this repository: the simulation
// stack whose virtual time must not observe real time, and the
// campaign/experiment pipeline whose serialized output must be
// byte-identical across worker counts. The cmd/ drivers are included so
// a wall-clock read that leaks into output needs an explicit,
// reviewable //grinchvet:ignore waiver.
func DefaultDeterministicPkgs() []string {
	return []string{
		"internal/sim",
		"internal/cache",
		"internal/soc",
		"internal/noc",
		"internal/rtos",
		// The batched attack pipeline (DESIGN.md §15) promises scalar/
		// batch byte-identity, which makes the whole crafting-to-
		// elimination stack a determinism surface, not just the
		// campaign layer above it.
		"internal/core",
		"internal/gift",
		"internal/bitutil",
		"internal/probe",
		"internal/rng",
		"internal/oracle",
		"internal/faults",
		"internal/campaign",
		"internal/campaignd",
		// Covered by the internal/campaignd tree entry above, but listed
		// explicitly: replayable fault schedules are the chaos package's
		// whole contract (DESIGN.md §16) — injection decisions derive
		// from seeds and request ordinals, never from the clock.
		"internal/campaignd/chaos",
		"internal/experiments",
		"internal/obs",
		// Covered by the internal/obs tree entry above, but listed
		// explicitly: deterministic snapshots are a documented contract
		// of the metrics registry (DESIGN.md §14), not an accident of
		// its location.
		"internal/obs/metrics",
		"internal/analysis/quantcheck",
		"cmd/campaign",
		"cmd/campaignd",
		"cmd/campaignw",
		"cmd/experiments",
		"cmd/grinch",
		"cmd/traceview",
	}
}

// deterministic reports whether pkgPath (a full import path) falls in
// the configured deterministic core.
func (c Config) deterministic(modulePath, pkgPath string) bool {
	rel := pkgPath
	if modulePath != "" && len(pkgPath) > len(modulePath) && pkgPath[:len(modulePath)] == modulePath && pkgPath[len(modulePath)] == '/' {
		rel = pkgPath[len(modulePath)+1:]
	}
	for _, p := range c.DeterministicPkgs {
		if rel == p || (len(rel) > len(p) && rel[:len(p)] == p && rel[len(p)] == '/') {
			return true
		}
	}
	return false
}

// ruleEnabled reports whether the config selects the rule.
func (c Config) ruleEnabled(rule string) bool {
	if len(c.Rules) == 0 {
		return true
	}
	for _, r := range c.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

// Analyze runs every registered analyzer over the given packages and
// returns the surviving findings: suppressed sites (//grinchvet:ignore)
// are dropped, rule filtering applied, and the result sorted by
// file, line, column, rule.
func Analyze(world *World, pkgs []*Package, cfg Config) []Finding {
	var raw []Finding
	for _, pkg := range pkgs {
		pass := &Pass{World: world, Pkg: pkg, Config: cfg, findings: &raw}
		for _, a := range Registry() {
			a.Run(pass)
		}
	}
	out := make([]Finding, 0, len(raw))
	for _, f := range raw {
		if !cfg.ruleEnabled(f.Rule) {
			continue
		}
		if world.suppressed(f) {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// enclosingFuncName renders a FuncDecl's name with its receiver type,
// e.g. "Cipher64.EncryptTraced" — the form used in baseline keys.
func enclosingFuncName(fd *ast.FuncDecl) string {
	if fd == nil {
		return ""
	}
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if t := receiverTypeName(fd.Recv.List[0].Type); t != "" {
			name = t + "." + name
		}
	}
	return name
}

func receiverTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverTypeName(t.X)
	case *ast.IndexExpr: // generic receiver T[A]
		return receiverTypeName(t.X)
	case *ast.IndexListExpr: // generic receiver T[A, B]
		return receiverTypeName(t.X)
	}
	return ""
}

// exprString renders a compact, stable form of an expression for
// finding details: identifiers and selector chains come out verbatim,
// anything more complex is elided.
func exprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		base := exprString(t.X)
		if base == "" {
			return t.Sel.Name
		}
		return base + "." + t.Sel.Name
	case *ast.ParenExpr:
		return exprString(t.X)
	case *ast.StarExpr:
		return exprString(t.X)
	case *ast.IndexExpr:
		return exprString(t.X) + "[...]"
	case *ast.IndexListExpr:
		return exprString(t.X) + "[...]"
	case *ast.CallExpr:
		return exprString(t.Fun) + "(...)"
	}
	return ""
}

var _ = token.NoPos
