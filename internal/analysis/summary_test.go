package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSummaryCacheInvalidation proves the source-fingerprint keying: a
// cached summary survives an identical reload but is recomputed when
// the helper's source changes. The helper mutates weights without
// Invalidate, so its summary hands the obligation to the exported
// caller, which invalidatecheck flags; once the helper invalidates, the
// stale cached summary must not keep the finding alive.
func TestSummaryCacheInvalidation(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpmod\n\ngo 1.21\n")
	write("internal/tensor/tensor.go", tensorStub)
	appSrc := `package app

import "tmpmod/internal/tensor"

type Layer struct {
	W      *tensor.Matrix
	packed *tensor.Matrix
}

func (l *Layer) Invalidate() { l.packed = nil }

func scale(l *Layer, s float32) {
	l.W.Data[0] = s
	%s
}

func Scale(l *Layer, s float32) {
	scale(l, s)
}
`
	cache := NewSummaryCache()
	analyze := func() []Finding {
		t.Helper()
		l, err := NewLoader(root)
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		pkgs, err := l.Load()
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		return AnalyzeOptions(pkgs, []*Analyzer{Lookup("invalidatecheck")}, Options{Cache: cache})
	}
	write("internal/app/app.go", fmt.Sprintf(appSrc, ""))
	wantLines(t, analyze(), "invalidatecheck", 18)
	// An identical reload must answer from the cache and still flag.
	wantLines(t, analyze(), "invalidatecheck", 18)
	// Fixing the helper changes its package fingerprint: the stale
	// cached summary must not keep the finding alive.
	write("internal/app/app.go", fmt.Sprintf(appSrc, "l.Invalidate()"))
	wantLines(t, analyze(), "invalidatecheck")
}
