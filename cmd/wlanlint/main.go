// Command wlanlint runs the simulator's domain-invariant static-analysis
// suite (internal/lint) over the module: dB/linear conversion discipline and
// cross-function unit dataflow, seeded-RNG enforcement, determinism routes,
// float equality, unkeyed config literals, hot-path allocation patterns,
// exported internal code that only tests reach, and a compiler-backed
// heap-escape gate for //lint:hotpath functions.
//
// Usage:
//
//	go run ./cmd/wlanlint [-list] [-analyzers a,b] [-escape] [-json]
//	                      [-allow-stale-ignores] [packages...]
//
// Patterns are directories relative to the working directory, with go-style
// /... recursion; the default is ./... . -escape runs only the escape gate
// (it invokes go build -gcflags=-m rather than walking the AST). -json
// emits the findings as a JSON array instead of text. A full-suite run also
// reports stale //lint:ignore directives; -allow-stale-ignores downgrades
// those to warnings during transitions.
//
// Exit status is 0 when no error-severity findings were reported, 1 when at
// least one was, 2 on usage or load errors. Warnings never affect the exit
// status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wlansim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("wlanlint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	escape := fs.Bool("escape", false, "run only the compiler-backed escape gate (go build -gcflags=-m)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	allowStale := fs.Bool("allow-stale-ignores", false, "downgrade stale //lint:ignore directives to warnings")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: wlanlint [-list] [-analyzers a,b] [-escape] [-json] [-allow-stale-ignores] [packages...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-16s %s\n", lint.EscapeAnalyzerName,
			"compiler-backed heap-escape gate for //lint:hotpath functions (run with -escape)")
		return 0
	}
	fullSuite := *only == ""
	if !fullSuite {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "wlanlint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlanlint:", err)
		return 2
	}
	pkgs, err := lint.LoadPackages(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlanlint:", err)
		return 2
	}

	// Stale-ignore accounting is only meaningful when every analyzer a
	// directive could serve actually ran: under a subset, directives for
	// unselected analyzers are trivially unused.
	opts := lint.Options{StaleIgnores: fullSuite || *escape}
	var diags []lint.Diagnostic
	if *escape {
		diags, err = lint.EscapeCheck(pkgs, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wlanlint:", err)
			return 2
		}
	} else {
		diags = lint.RunOpts(pkgs, analyzers, opts)
	}
	if *allowStale {
		for i := range diags {
			if diags[i].Analyzer == lint.StaleIgnoreAnalyzerName {
				diags[i].Severity = lint.SeverityWarning
			}
		}
	}

	errors := 0
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
		if diags[i].Severity == lint.SeverityError {
			errors++
		}
	}

	if *asJSON {
		out := make([]jsonDiagnostic, len(diags))
		for i, d := range diags {
			out[i] = jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Severity: d.Severity,
				Message:  d.Message,
				Hint:     d.Hint,
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "wlanlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s\n", d.Severity, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wlanlint: %d finding(s) (%d error(s)) in %d package(s)\n",
			len(diags), errors, len(pkgs))
	}
	if errors > 0 {
		return 1
	}
	return 0
}
