// Command mobilstm-lint runs the project's static-analysis suite
// (internal/analysis) over the module: four analyzers for determinism,
// report order, panic policy and threshold constants, which encode the
// paper-reproduction's correctness contract. Lock copies are left to
// go vet's copylocks check, data races to go test -race, and the
// forward and serving contracts (FP32 numerics, packed-cache coherence,
// output ownership, goroutine lifetimes) to run-time tests. See
// docs/STATIC_ANALYSIS.md for the analyzer catalogue and the
// lint:ignore suppression syntax.
//
// Usage:
//
//	mobilstm-lint [flags] [./... | dir ...]
//
// With no arguments (or "./...") the whole module containing the
// current directory is analyzed. Explicit directory arguments restrict
// the report to packages under those directories.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mobilstm/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mobilstm-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array")
		enable  = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable = fs.String("disable", "", "comma-separated analyzers to skip")
		list    = fs.Bool("list", false, "list registered analyzers and exit")
		tests   = fs.Bool("tests", true, "also analyze _test.go packages (test-scoped analyzers only)")
		stale   = fs.Bool("stale", true, "report lint:ignore directives that no longer suppress any finding")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "mobilstm-lint:", err)
		return 2
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "mobilstm-lint:", err)
		return 2
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load()
	if err != nil {
		fmt.Fprintln(stderr, "mobilstm-lint:", err)
		return 2
	}
	pkgs, err = filterPackages(pkgs, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "mobilstm-lint:", err)
		return 2
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "mobilstm-lint: type error in %s: %v\n", pkg.ImportPath, terr)
		}
	}

	findings := analysis.AnalyzeOptions(pkgs, analyzers, analysis.Options{Stale: *stale})
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "mobilstm-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, relativize(f, loader.Root))
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "mobilstm-lint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable/-disable to the registry.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	chosen := analysis.All()
	if enable != "" {
		chosen = nil
		for _, name := range splitList(enable) {
			a := analysis.Lookup(name)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			chosen = append(chosen, a)
		}
	}
	if disable != "" {
		skip := map[string]bool{}
		for _, name := range splitList(disable) {
			if analysis.Lookup(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			skip[name] = true
		}
		var kept []*analysis.Analyzer
		for _, a := range chosen {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		chosen = kept
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return chosen, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// filterPackages restricts to packages under the given directory
// arguments. "./..." (or no argument) keeps everything.
func filterPackages(pkgs []*analysis.Package, args []string) ([]*analysis.Package, error) {
	var roots []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." || arg == "." {
			return pkgs, nil
		}
		abs, err := filepath.Abs(strings.TrimSuffix(arg, "/..."))
		if err != nil {
			return nil, err
		}
		roots = append(roots, abs)
	}
	if len(roots) == 0 {
		return pkgs, nil
	}
	var out []*analysis.Package
	for _, pkg := range pkgs {
		for _, root := range roots {
			if pkg.Dir == root || strings.HasPrefix(pkg.Dir, root+string(filepath.Separator)) {
				out = append(out, pkg)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages match %v", args)
	}
	return out, nil
}

// relativize shortens finding paths for terminal output.
func relativize(f analysis.Finding, root string) string {
	s := f.String()
	if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		s = strings.Replace(s, f.Pos.Filename, rel, 1)
	}
	return s
}
