package mobilstm_test

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var mutate = flag.Bool("mutate", false,
	"apply each row of testdata/mutations.txt to a copy of the module and require its catcher to fail")

// mutation is one row of testdata/mutations.txt: a seeded bug, the
// package whose tests must catch it, and the edits that plant it.
type mutation struct {
	name, class, pkg string
	catch            []string // tests that must fail
	count            int      // go test -count; the catcher must fail every run
	mark             string   // output that counts as the catch, when not "--- FAIL: <catch>"
	edits            []edit
}

// edit replaces anchor, which must occur exactly once in file, with repl.
type edit struct{ file, anchor, repl string }

// parseMutations reads the table. A row is "row <name>" followed by its
// fields, one "<key> <value>" per line, and one or more edits: an
// "edit <file>" line, then "<<<", the anchor lines, "===", the
// replacement lines and ">>>". Lines inside an edit are verbatim;
// elsewhere blank lines and # comments are skipped.
func parseMutations(t *testing.T, path string) []*mutation {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var rows []*mutation
	var cur *mutation
	file := ""
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if line == "<<<" {
			mid, end := slices.Index(lines[i:], "==="), slices.Index(lines[i:], ">>>")
			if cur == nil || file == "" || mid < 0 || end < mid {
				t.Fatalf("%s:%d: edit block without a row, an edit line, its === or its >>>", path, i+1)
			}
			mid, end = i+mid, i+end
			cur.edits = append(cur.edits, edit{file,
				strings.Join(lines[i+1:mid], "\n"), strings.Join(lines[mid+1:end], "\n")})
			i = end
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		val = strings.TrimSpace(val)
		if key == "row" {
			cur, file = &mutation{name: val, count: 1}, ""
			rows = append(rows, cur)
			continue
		}
		if cur == nil {
			t.Fatalf("%s:%d: %q before the first row", path, i+1, key)
		}
		switch key {
		case "class":
			cur.class = val
		case "pkg":
			cur.pkg = val
		case "catch":
			cur.catch = strings.Fields(val)
		case "count":
			if cur.count, err = strconv.Atoi(val); err != nil || cur.count < 1 {
				t.Fatalf("%s:%d: bad count %q", path, i+1, val)
			}
		case "mark":
			cur.mark = val
		case "edit":
			file = val
		default:
			t.Fatalf("%s:%d: unknown field %q", path, i+1, key)
		}
	}
	for _, m := range rows {
		if m.class == "" || m.pkg == "" || len(m.catch) == 0 || len(m.edits) == 0 {
			t.Fatalf("%s: row %s needs a class, pkg, catch and an edit", path, m.name)
		}
	}
	return rows
}

// TestMutations plants every row of testdata/mutations.txt in its own
// copy of the module and runs the row's catchers there. They must fail
// on every one of the row's runs; a build error is not a catch. Off by
// default (make mutate).
func TestMutations(t *testing.T) {
	if !*mutate {
		t.Skip("seeded mutations: run with -mutate (make mutate)")
	}
	for _, m := range parseMutations(t, filepath.Join("testdata", "mutations.txt")) {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			copyModule(t, dir)
			for _, e := range m.edits {
				path := filepath.Join(dir, filepath.FromSlash(e.file))
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if n := bytes.Count(src, []byte(e.anchor)); n != 1 {
					t.Fatalf("stale row: anchor occurs %d times in %s, want once:\n%s", n, e.file, e.anchor)
				}
				src = bytes.Replace(src, []byte(e.anchor), []byte(e.repl), 1)
				if err := os.WriteFile(path, src, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			names := strings.Join(m.catch, "|")
			// -trimpath keys the build cache by content, not by the
			// copy's directory, so only the mutated packages rebuild.
			cmd := exec.Command("go", "test", "-trimpath", "-count="+strconv.Itoa(m.count),
				"-run", "^("+names+")$", m.pkg)
			cmd.Dir = dir
			out, _ := cmd.CombinedOutput()
			if bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")) {
				t.Fatalf("the mutated copy does not build, which catches nothing:\n%s", out)
			}
			fails := 0
			if m.mark != "" {
				fails = bytes.Count(out, []byte(m.mark))
			} else {
				fails = len(regexp.MustCompile(`(?m)^--- FAIL: (`+names+`) \(`).FindAll(out, -1))
			}
			if fails < m.count {
				t.Errorf("%s row caught on %d of %d runs of %s:\n%s", m.class, fails, m.count, names, out)
			} else {
				t.Logf("%s: caught by %s", m.class, names)
			}
		})
	}
}

// copyModule copies the module's files, without .git and the
// benchmark's build outputs, into dir.
func copyModule(t *testing.T, dir string) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, path), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, path), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
