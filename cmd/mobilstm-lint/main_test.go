package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobilstm/internal/analysis"
)

// capture invokes run with file-backed stdout/stderr and returns the
// exit code and both streams.
func capture(t *testing.T, args []string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	code := run(args, stdout, stderr)
	stdout.Close()
	stderr.Close()
	read := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return code, read(filepath.Join(dir, "stdout")), read(filepath.Join(dir, "stderr"))
}

// inModule materializes a one-package module and chdirs into it, so
// run's NewLoader(".") resolves the fixture instead of this repo.
func inModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module lintfix\n\ngo 1.22\n"
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return dir
}

// badSrc trips threshconst on line 7 and nothing else.
const badSrc = `package lintfix

// Keep reports whether v clears the scaled threshold.
func Keep(v, alphaScale float32) bool {
	kept := false
	if v > 0 {
		kept = v >= 0.3*alphaScale
	}
	return kept
}
`

const cleanSrc = `package lintfix

// Scale is element-wise: no reduction, nothing to flag.
func Scale(dst []float32, a float32) {
	for i := range dst {
		dst[i] *= a
	}
}
`

func TestListAnalyzers(t *testing.T) {
	code, out, _ := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	names := []string{"globalrand", "maporder", "panicpolicy", "threshconst"}
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
	if n := strings.Count(out, "\n"); n != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", n, len(names), out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := capture(t, []string{"-enable", "nosuch"}); code != 2 {
		t.Errorf("unknown -enable analyzer: exit = %d, want 2", code)
	}
	if code, _, _ := capture(t, []string{"-disable", "nosuch"}); code != 2 {
		t.Errorf("unknown -disable analyzer: exit = %d, want 2", code)
	}
	if code, _, _ := capture(t, []string{"-bogusflag"}); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
}

func TestFindingsExitAndText(t *testing.T) {
	inModule(t, map[string]string{"bad.go": badSrc})
	code, out, _ := capture(t, nil)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on findings\n%s", code, out)
	}
	if !strings.Contains(out, "bad.go:7") || !strings.Contains(out, "[threshconst]") {
		t.Errorf("text output should locate the finding:\n%s", out)
	}
	if !strings.Contains(out, "1 finding(s)") {
		t.Errorf("text output should count findings:\n%s", out)
	}
}

func TestCleanExit(t *testing.T) {
	inModule(t, map[string]string{"ok.go": cleanSrc})
	if code, out, errOut := capture(t, nil); code != 0 {
		t.Fatalf("exit = %d, want 0 on clean module\n%s%s", code, out, errOut)
	}
}

// TestJSONGolden decodes the -json stream back into findings and pins
// the shape the CI artifact consumers rely on.
func TestJSONGolden(t *testing.T) {
	dir := inModule(t, map[string]string{"bad.go": badSrc})
	code, out, _ := capture(t, []string{"-json"})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var findings []analysis.Finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "threshconst" || f.Pos.Line != 7 {
		t.Errorf("finding = %+v, want threshconst at line 7", f)
	}
	resolved, err := filepath.EvalSymlinks(dir)
	if err != nil {
		resolved = dir
	}
	if got, _ := filepath.EvalSymlinks(f.Pos.Filename); filepath.Dir(got) != resolved {
		t.Errorf("finding file %s not under module %s", f.Pos.Filename, resolved)
	}
	if !strings.Contains(f.Message, "internal/thresholds") {
		t.Errorf("message lost its contract wording: %s", f.Message)
	}
}

// TestJSONCleanIsEmptyArray: consumers index the artifact, so a clean
// run must emit [] rather than null.
func TestJSONCleanIsEmptyArray(t *testing.T) {
	inModule(t, map[string]string{"ok.go": cleanSrc})
	code, out, _ := capture(t, []string{"-json"})
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json output = %q, want []", strings.TrimSpace(out))
	}
}

// TestStaleFlag: an ignore directive that suppresses nothing is itself
// a finding by default, and -stale=false turns the check off.
func TestStaleFlag(t *testing.T) {
	inModule(t, map[string]string{"ok.go": `package lintfix

func ok() int {
	//lint:ignore threshconst nothing here needs suppressing
	return 1
}
`})
	code, out, _ := capture(t, nil)
	if code != 1 || !strings.Contains(out, "stale") {
		t.Errorf("stale directive should be reported by default: exit=%d\n%s", code, out)
	}
	if code, out, _ := capture(t, []string{"-stale=false"}); code != 0 {
		t.Errorf("-stale=false should silence the stale check: exit=%d\n%s", code, out)
	}
}

func TestDisableSilencesAnalyzer(t *testing.T) {
	inModule(t, map[string]string{"bad.go": badSrc})
	if code, out, _ := capture(t, []string{"-disable", "threshconst"}); code != 0 {
		t.Errorf("-disable threshconst should leave the module clean: exit=%d\n%s", code, out)
	}
	if code, _, _ := capture(t, []string{"-enable", "threshconst"}); code != 1 {
		t.Errorf("-enable threshconst should still flag it: exit=%d", code)
	}
}
