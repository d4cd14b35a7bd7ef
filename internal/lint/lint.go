// Package lint implements wlanlint, the simulator's domain-invariant
// static-analysis suite (see cmd/wlanlint/README.md).
//
// The RF subsystem is verified against BER and spectrum curves, and the
// failure class that silently corrupts those curves is not a crash but a
// convention violation: an inline dB↔linear conversion with the wrong
// divisor, a stochastic block drawing from the shared global RNG, an exact
// float comparison on a computed power, or a positional Config literal that
// shifts meaning when the struct grows. Each analyzer in this package
// encodes one such project invariant over the typed AST.
//
// Analyzers operate on packages loaded by LoadPackages, which type-checks
// the module using only the standard library (go/parser, go/types and the
// source importer), keeping the tool as dependency-free as the simulator
// itself. Test files are excluded: the invariants guard simulator code, and
// tests legitimately use exact comparisons and ad-hoc conversions.
//
// Beyond per-expression pattern analyzers, the package carries a small
// dataflow layer: packages are analyzed in dependency order and analyzers
// may publish facts about exported declarations (see FactStore) that
// downstream packages' passes consume, which is how unitsflow tracks dB- and
// linear-domain values across assignments, calls and package boundaries.
// Facts flow only from a package to its importers; testonly needs the
// reverse view (who references this function), so it builds a module-wide
// use index once per Loader instead.
// The compiler-backed escape gate (EscapeCheck) is separate from the AST
// analyzers: it shells out to go build -gcflags=-m and holds functions
// annotated //lint:hotpath to a no-heap-escape contract.
//
// Any diagnostic can be suppressed by an explicit, justified directive on
// the offending line or the line above it:
//
//	//lint:ignore <analyzer|all> <reason>
//
// A directive that suppresses nothing is itself reported (staleignore), so
// suppressions cannot outlive the code they were written for.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Severity levels of a diagnostic. Errors fail the build; warnings are
// reported but do not affect the exit status.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Severity is SeverityError or SeverityWarning.
	Severity string
	// Message states what is wrong.
	Message string
	// Hint states how to fix it.
	Hint string
}

// String formats the diagnostic as "file:line:col: analyzer: message [hint]".
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
	if d.Hint != "" {
		s += " [" + d.Hint + "]"
	}
	return s
}

// Analyzer is one composable check over a type-checked package.
type Analyzer struct {
	// Name is the short identifier used in output and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Severity is the severity of this analyzer's findings; empty means
	// SeverityError.
	Severity string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// Facts is the cross-package fact store shared by every pass of a Run.
	// Packages are analyzed in dependency order, so facts published while
	// analyzing an imported package are visible here.
	Facts    *FactStore
	analyzer *Analyzer
	diags    []Diagnostic
}

// Report records a finding at pos with a fix hint.
func (p *Pass) Report(pos token.Pos, message, hint string) {
	sev := p.analyzer.Severity
	if sev == "" {
		sev = SeverityError
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Severity: sev,
		Message:  message,
		Hint:     hint,
	})
}

// Reportf records a finding with a formatted message and a fix hint.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...), hint)
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		UnitsDiscipline, SeededRand, FloatEq, UnkeyedConfig, HotPathExp,
		KernelPure, AsmTwin, UnitsFlow, DetFlow, TestOnly,
	}
}

// EscapeAnalyzerName is the directive name of the compiler-backed escape
// gate (EscapeCheck). It is not part of All() — it needs a go toolchain
// invocation, not an AST walk — but //lint:ignore escape and //lint:hotpath
// are recognized everywhere.
const EscapeAnalyzerName = "escape"

// StaleIgnoreAnalyzerName names the engine's own check that every
// //lint:ignore directive still suppresses at least one diagnostic.
const StaleIgnoreAnalyzerName = "staleignore"

// knownDirectiveNames returns every name valid in a //lint:ignore directive:
// the full suite (regardless of which subset a run selects, so a subset run
// does not misreport other analyzers' suppressions as malformed), the escape
// gate, and "all".
func knownDirectiveNames() map[string]bool {
	known := map[string]bool{"all": true, EscapeAnalyzerName: true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string // analyzer name or "all"
	reason   string
	pos      token.Position
	used     bool // set when the directive suppresses a diagnostic
}

// ignoreSet maps file name and line number to the directives covering it.
type ignoreSet map[string]map[int][]*ignoreDirective

// suppressed reports whether a directive on the diagnostic's line or the
// line directly above it names the diagnostic's analyzer (or "all"), and
// marks any matching directive used.
func (ig ignoreSet) suppressed(d Diagnostic) bool {
	lines := ig[d.Pos.Filename]
	hit := false
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[line] {
			if dir.analyzer == "all" || dir.analyzer == d.Analyzer {
				dir.used = true
				hit = true
			}
		}
	}
	return hit
}

// stale returns the directives that suppressed nothing, restricted to those
// naming an analyzer for which accept returns true (so the escape gate and
// the AST suite each account only for their own directives).
func (ig ignoreSet) stale(accept func(analyzer string) bool) []Diagnostic {
	var out []Diagnostic
	for _, lines := range ig {
		for _, dirs := range lines {
			for _, dir := range dirs {
				if dir.used || !accept(dir.analyzer) {
					continue
				}
				out = append(out, Diagnostic{
					Pos:      dir.pos,
					Analyzer: StaleIgnoreAnalyzerName,
					Severity: SeverityError,
					Message:  fmt.Sprintf("ignore directive for %q suppresses no diagnostic", dir.analyzer),
					Hint:     "the code it justified has moved or been fixed; delete the directive (or run with -allow-stale-ignores during a transition)",
				})
			}
		}
	}
	return out
}

const ignorePrefix = "//lint:ignore"

// collectIgnores parses the package's //lint:ignore directives. Malformed
// directives (missing analyzer name or reason) suppress nothing and are
// returned separately so the runner can surface them.
func collectIgnores(pkg *Package, known map[string]bool) (ignoreSet, []Diagnostic) {
	ig := make(ignoreSet)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				malformed := len(fields) < 2 || !(fields[0] == "all" || known[fields[0]])
				if malformed {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Severity: SeverityError,
						Message:  fmt.Sprintf("malformed ignore directive %q", c.Text),
						Hint:     "use //lint:ignore <analyzer|all> <reason>",
					})
					continue
				}
				if ig[pos.Filename] == nil {
					ig[pos.Filename] = make(map[int][]*ignoreDirective)
				}
				ig[pos.Filename][pos.Line] = append(ig[pos.Filename][pos.Line], &ignoreDirective{
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      pos,
				})
			}
		}
	}
	return ig, bad
}

// Options configures a Run.
type Options struct {
	// StaleIgnores reports //lint:ignore directives that suppressed no
	// diagnostic. Enable it only when running the full suite: under a
	// subset, directives for unselected analyzers are trivially unused.
	StaleIgnores bool
}

// RunOpts applies the analyzers to every package, in dependency order so
// that cross-package facts flow from imported packages to their importers,
// and returns the surviving diagnostics sorted by position. Findings
// suppressed by a well-formed //lint:ignore directive are dropped; malformed
// directives are themselves reported, and with opts.StaleIgnores so are
// directives that suppressed nothing.
func RunOpts(pkgs []*Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	known := knownDirectiveNames()
	facts := NewFactStore()
	var out []Diagnostic
	for _, pkg := range dependencyOrder(pkgs) {
		ig, bad := collectIgnores(pkg, known)
		out = append(out, bad...)
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Facts: facts, analyzer: a}
			a.Run(pass)
			for _, d := range pass.diags {
				if !ig.suppressed(d) {
					out = append(out, d)
				}
			}
		}
		if opts.StaleIgnores {
			// The escape gate accounts for its own directives in
			// EscapeCheck; "all" and suite names are accounted here.
			out = append(out, ig.stale(func(name string) bool {
				return name != EscapeAnalyzerName
			})...)
		}
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders diagnostics by position, then analyzer.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// dependencyOrder returns the packages topologically sorted so that every
// package follows the packages it imports (restricted to the given set).
// Ties keep the input (path-sorted) order, so the result is deterministic.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.Path] != 0 {
			return // visiting (cycle: impossible in valid Go) or done
		}
		state[p.Path] = 1
		for _, imp := range p.TPkg.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		state[p.Path] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// inspect walks every file in the pass's package.
func inspect(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
