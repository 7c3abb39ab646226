// Package analysis is mobilstm's project-specific static-analysis
// framework: a stdlib-only (go/ast, go/parser, go/types, go/build — no
// golang.org/x/tools) driver core with a pluggable analyzer registry.
//
// The analyzers encode the repository's reproducibility contract: the
// simulator's headline numbers (Table I timing/energy, DRS accuracy per
// threshold set) are only trustworthy if randomness is seeded, report
// output does not follow map order, library code cannot crash the
// serving path, and threshold constants live in one place. Each
// analyzer documents which of those invariants it guards.
//
// Findings can be suppressed in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or on its own line directly above it, or for a
// whole file with
//
//	//lint:file-ignore <analyzer> <reason>
//
// anywhere in the file. The reason is mandatory; a directive without
// one, or naming no registered analyzer, is itself reported (analyzer
// name "ignore"). <analyzer> may be a comma-separated list.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Analyzer is one registered check. Run inspects a single type-checked
// package and returns its findings; it must not mutate the Pass.
type Analyzer struct {
	// Name is the identifier used in -enable/-disable flags and
	// lint:ignore directives.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Tests marks analyzers that also run on _test.go packages.
	// Most analyzers guard production numerics and skip tests, where
	// deliberate panics and testing/quick's *math/rand.Rand signatures
	// are idiomatic; determinism rules (globalrand, panicpolicy) stay on.
	Tests bool
	// Run produces the findings for one package.
	Run func(*Pass) []Finding
}

// registry holds the analyzers in registration order.
var registry []*Analyzer

// Register adds an analyzer to the global registry. It is called from
// init functions of the analyzer files.
func Register(a *Analyzer) {
	registry = append(registry, a)
}

// All returns the registered analyzers in a stable order.
func All() []*Analyzer {
	out := append([]*Analyzer(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the registered analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Options configures an Analyze run.
type Options struct {
	// Stale reports every lint:ignore directive that no longer
	// suppresses any finding, as analyzer "stale" at the directive's
	// position. A directive is exempt when an analyzer it names was not
	// part of the run (a "*" directive requires the full registry), so
	// partial runs don't cry stale over suppressions they cannot judge.
	Stale bool
}

// Analyze runs the given analyzers over the packages, applies
// lint:ignore suppressions, and returns the surviving findings sorted
// by position. Malformed directives surface as findings themselves,
// and stale suppressions are reported by default.
func Analyze(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return AnalyzeOptions(pkgs, analyzers, Options{Stale: true})
}

// AnalyzeOptions is Analyze with explicit options.
func AnalyzeOptions(pkgs []*Package, analyzers []*Analyzer, opts Options) []Finding {
	var findings []Finding
	var sups []suppression
	for _, pkg := range pkgs {
		pass := &Pass{Pkg: pkg}
		for _, a := range analyzers {
			if pkg.ForTest != "" && !a.Tests {
				continue
			}
			findings = append(findings, a.Run(pass)...)
		}
		s, malformed := collectSuppressions(pkg.Fset, pkg.Files)
		for i := range s {
			s[i].fromTests = pkg.ForTest != ""
		}
		sups = append(sups, s...)
		findings = append(findings, malformed...)
	}
	findings = filterSuppressed(findings, sups)
	if opts.Stale {
		findings = append(findings, staleFindings(sups, analyzers)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings
}

// suppression is one parsed lint:ignore / lint:file-ignore directive.
type suppression struct {
	file      string
	analyzers []string // names, or ["*"]
	line      int      // effective target line; 0 for file-wide
	wholeFile bool
	pos       token.Position // the directive itself, for stale reporting
	fromTests bool           // collected from a _test.go package
	matched   bool           // suppressed at least one finding this run
}

func (s suppression) covers(f Finding) bool {
	if f.Pos.Filename != s.file {
		return false
	}
	if !s.wholeFile && f.Pos.Line != s.line {
		return false
	}
	for _, name := range s.analyzers {
		if name == "*" || name == f.Analyzer {
			return true
		}
	}
	return false
}

const (
	ignorePrefix     = "//lint:ignore"
	fileIgnorePrefix = "//lint:file-ignore"
)

// collectSuppressions parses lint directives out of the files'
// comments. A line directive written on its own line targets the next
// line; written at the end of a code line it targets that line.
// Directives missing an analyzer name or a reason, or naming an
// analyzer that is not registered, are returned as "ignore" findings —
// whatever subset of analyzers the run enables, since a misspelled name
// would otherwise suppress nothing and never be reported stale.
func collectSuppressions(fset *token.FileSet, files []*ast.File) ([]suppression, []Finding) {
	var sups []suppression
	var malformed []Finding
	for _, file := range files {
		// ownLine marks comment groups that start a line, so the
		// directive shifts down to the following line of code.
		lineHasCode := map[int]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
				return true
			}
			lineHasCode[fset.Position(n.Pos()).Line] = true
			return true
		})
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				wholeFile := strings.HasPrefix(text, fileIgnorePrefix+" ") || text == fileIgnorePrefix
				isLine := !wholeFile && (strings.HasPrefix(text, ignorePrefix+" ") || text == ignorePrefix)
				if !wholeFile && !isLine {
					continue
				}
				pos := fset.Position(c.Pos())
				prefix := ignorePrefix
				if wholeFile {
					prefix = fileIgnorePrefix
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
				parts := strings.SplitN(rest, " ", 2)
				if len(parts) < 2 || parts[0] == "" || strings.TrimSpace(parts[1]) == "" {
					malformed = append(malformed, Finding{
						Analyzer: "ignore",
						Pos:      pos,
						Message:  fmt.Sprintf("malformed %s directive: want %s <analyzer> <reason>", prefix, prefix),
					})
					continue
				}
				s := suppression{
					file:      pos.Filename,
					analyzers: strings.Split(parts[0], ","),
					wholeFile: wholeFile,
					pos:       pos,
				}
				for _, name := range s.analyzers {
					if name != "*" && name != "ignore" && name != "stale" && Lookup(name) == nil {
						malformed = append(malformed, Finding{
							Analyzer: "ignore",
							Pos:      pos,
							Message:  fmt.Sprintf("%s names no registered analyzer %q", prefix, name),
						})
					}
				}
				if !wholeFile {
					s.line = pos.Line
					if !lineHasCode[pos.Line] {
						s.line = pos.Line + 1
					}
				}
				sups = append(sups, s)
			}
		}
	}
	return sups, malformed
}

// filterSuppressed drops covered findings and marks every suppression
// that matched at least one, so staleFindings can report the rest.
func filterSuppressed(findings []Finding, sups []suppression) []Finding {
	if len(sups) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for i := range sups {
			if sups[i].covers(f) {
				sups[i].matched = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}

// staleFindings reports every suppression that matched nothing, when
// the run was able to judge it: each named analyzer ran (on the kind of
// package the directive lives in), and a "*" directive requires the
// full registry. "ignore" and "stale" are driver-produced and always
// judgeable.
func staleFindings(sups []suppression, ran []*Analyzer) []Finding {
	ranByName := map[string]*Analyzer{}
	for _, a := range ran {
		ranByName[a.Name] = a
	}
	fullRegistry := true
	for _, a := range All() {
		if ranByName[a.Name] == nil {
			fullRegistry = false
			break
		}
	}
	var out []Finding
	for i := range sups {
		s := &sups[i]
		if s.matched || !staleEligible(s, ranByName, fullRegistry) {
			continue
		}
		directive := ignorePrefix
		if s.wholeFile {
			directive = fileIgnorePrefix
		}
		out = append(out, Finding{
			Analyzer: "stale",
			Pos:      s.pos,
			Message: fmt.Sprintf("%s %s no longer suppresses any finding; remove it",
				strings.TrimPrefix(directive, "//"), strings.Join(s.analyzers, ",")),
		})
	}
	return out
}

func staleEligible(s *suppression, ran map[string]*Analyzer, fullRegistry bool) bool {
	for _, name := range s.analyzers {
		switch name {
		case "*":
			if !fullRegistry {
				return false
			}
		case "ignore", "stale":
			// driver findings: always produced, always judgeable
		default:
			a := ran[name]
			if a == nil {
				return false
			}
			// A directive in a test file is only judgeable by analyzers
			// that run on test packages.
			if s.fromTests && !a.Tests {
				return false
			}
		}
	}
	return true
}
