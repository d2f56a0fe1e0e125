package main

import (
	"bytes"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// write creates a file under dir, making parents.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLinkcheckPasses(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "other.md", "# Other Title\n\n## A Section Here\n")
	write(t, dir, "sub/file.go", "package x\n")
	doc := write(t, dir, "doc.md", strings.Join([]string{
		"# Doc",
		"",
		"## First Section",
		"",
		"A [file link](sub/file.go), a [doc link](other.md), a",
		"[cross anchor](other.md#a-section-here), a [self anchor](#first-section),",
		"an [external](https://example.com/nope) (never fetched), a [dir](sub).",
		"",
		"```",
		"[not a link](nothing.md) — fenced code is ignored",
		"```",
	}, "\n"))
	var out strings.Builder
	if err := run([]string{doc}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

func TestLinkcheckFindsBreakage(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "other.md", "# Other\n")
	doc := write(t, dir, "doc.md", strings.Join([]string{
		"# Doc",
		"",
		"[missing file](nope.md) and [missing anchor](#nowhere) and",
		"[missing cross anchor](other.md#gone).",
	}, "\n"))
	var out strings.Builder
	err := run([]string{doc}, &out)
	if err == nil {
		t.Fatalf("run passed on broken links:\n%s", out.String())
	}
	for _, want := range []string{"nope.md", "#nowhere", "#gone"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(err.Error(), "3 broken") {
		t.Errorf("err = %v, want 3 broken links", err)
	}
}

// TestRepoDocs runs the checker over the repository's real documentation,
// so a broken link fails `go test` even before the CI docs job runs. It also
// fails on a backticked test, benchmark or fuzz target that no _test.go in
// the tree declares, so the docs cannot cite a deleted test; a name
// followed by `*` or `{…}` (`BenchmarkBatch*`) stands for every name it
// prefixes. README's metric catalog must name exactly the families the
// code registers (checkMetricCatalog), and its toorjahd table exactly the
// flags toorjahd registers (checkFlagTable). CI's fuzz smoke must list
// exactly the declared fuzz targets, and every name CI cites must be
// declared (checkFuzzSmoke). Every path the docs cite in
// inline code must exist (checkCitedPaths), and README and ARCHITECTURE
// stay under their byte ceilings (checkDocSizes).
func TestRepoDocs(t *testing.T) {
	root := "../.."
	files := []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "ARCHITECTURE.md"),
		filepath.Join(root, "examples", "README.md"),
	}
	var out strings.Builder
	if err := run(files, &out); err != nil {
		t.Fatalf("repository docs: %v\n%s", err, out.String())
	}

	var declared []string
	fuzzers := make(map[string]bool) // "dir FuzzName", for each fuzz target outside bench/
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		for _, m := range declaredRE.FindAllSubmatch(src, -1) {
			declared = append(declared, string(m[1]))
			if bytes.HasPrefix(m[1], []byte("Fuzz")) && dir != "bench" && !strings.HasPrefix(dir, "bench/") {
				fuzzers[dir+" "+string(m[1])] = true
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkCited := func(f string, cited []string) {
		for _, cited := range cited {
			name, prefix := strings.CutSuffix(cited, "*")
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name, prefix = name[:i], true
			}
			if !slices.ContainsFunc(declared, func(d string) bool {
				return d == name || prefix && strings.HasPrefix(d, name)
			}) {
				t.Errorf("%s cites `%s`, which no _test.go declares", f, cited)
			}
		}
	}
	for _, f := range files {
		checkCited(f, citedTests(t, f))
	}
	ci := filepath.Join(root, ".github", "workflows", "ci.yml")
	checkCited(ci, checkFuzzSmoke(t, ci, fuzzers))
	checkMetricCatalog(t, root)
	checkFlagTable(t, root)
	checkCitedPaths(t, root, files)
	checkDocSizes(t, root)
}

// checkFuzzSmoke holds CI's fuzz smoke — its `-fuzz '^FuzzX$' ./dir/`
// lines — to the fuzz targets the tree declares outside bench/, package by
// package and in both directions: `go test -fuzz` with a pattern its
// package does not declare warns and passes. It returns the test, benchmark
// and fuzz target names the workflow cites, for the caller to hold to the
// declared ones.
func checkFuzzSmoke(t *testing.T, ci string, declared map[string]bool) []string {
	t.Helper()
	src, err := os.ReadFile(ci)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, m := range fuzzLineRE.FindAllStringSubmatch(string(src), -1) {
		dir := strings.Trim(strings.TrimPrefix(m[2], "./"), "/")
		listed[dir+" "+m[1]] = true
	}
	for _, target := range slices.Sorted(maps.Keys(declared)) {
		if !listed[target] {
			t.Errorf("%s declares fuzz target %s, which %s does not fuzz", strings.Fields(target)[0], strings.Fields(target)[1], ci)
		}
	}
	for _, target := range slices.Sorted(maps.Keys(listed)) {
		if !declared[target] {
			t.Errorf("%s fuzzes %s in %s, which declares no such target", ci, strings.Fields(target)[1], strings.Fields(target)[0])
		}
	}
	return citedRE.FindAllString(string(src), -1)
}

// docCeilings are the byte ceilings of the two largest docs. A change may
// lower a ceiling, never raise one: a new contract that needs room deletes
// an older paragraph.
var docCeilings = map[string]int64{"README.md": 44716, "ARCHITECTURE.md": 49913}

// checkDocSizes holds each doc of docCeilings to its ceiling.
func checkDocSizes(t *testing.T, root string) {
	t.Helper()
	for name, ceiling := range docCeilings {
		fi, err := os.Stat(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > ceiling {
			t.Errorf("%s is %d bytes, over its ceiling of %d: delete an older paragraph", name, fi.Size(), ceiling)
		}
	}
}

// checkCitedPaths holds every word of an inline code span that names a path
// under cmd/, internal/, examples/ or bench/ — a leading ./, a :line suffix
// and a trailing /... aside, each alternative of a brace group on its own —
// to a file or directory of the tree.
func checkCitedPaths(t *testing.T, root string, files []string) {
	t.Helper()
	for _, f := range files {
		spans, _ := docCode(t, f)
		for _, span := range spans {
			for _, word := range strings.Fields(strings.Trim(span, "`")) {
				path, _, _ := strings.Cut(strings.TrimPrefix(word, "./"), ":")
				path = strings.TrimSuffix(path, "/...") // a Go package pattern
				if !citedPathRE.MatchString(path) {
					continue
				}
				for _, p := range expandBraces(path) {
					if _, err := os.Stat(filepath.Join(root, p)); err != nil {
						t.Errorf("%s cites `%s`, and %s does not exist", f, word, p)
					}
				}
			}
		}
	}
}

// checkMetricCatalog holds README's metric catalog — the first cell of each
// table row that starts with a `toorjah_` code span, a brace group standing
// for each of its alternatives — to the family names quoted in the non-test
// Go under internal/ and cmd/ (testdata aside): each registered family must
// be in the catalog, and each family the catalog cites must be registered.
func checkMetricCatalog(t *testing.T, root string) {
	t.Helper()
	registered := make(map[string]bool)
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			src, err := os.ReadFile(path)
			for _, m := range familyRE.FindAllSubmatch(src, -1) {
				registered[string(m[1])] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(registered) == 0 {
		t.Fatal("no metric family is registered under internal/ or cmd/")
	}

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	cataloged := make(map[string]bool)
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `toorjah_") {
			continue
		}
		cell, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, span := range codeSpanRE.FindAllString(cell, -1) {
			for _, name := range expandBraces(strings.Trim(span, "`")) {
				cataloged[name] = true
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		if !cataloged[name] {
			t.Errorf("metric family %s is registered, but README's catalog lacks it", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(cataloged)) {
		if !registered[name] {
			t.Errorf("README's catalog cites metric family %s, which nothing registers", name)
		}
	}
}

// checkFlagTable holds README's toorjahd flag table — the table rows that
// start with a `-name` code span — to the flag names cmd/toorjahd/main.go
// registers, in both directions.
func checkFlagTable(t *testing.T, root string) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(root, "cmd", "toorjahd", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]bool)
	for _, m := range flagRE.FindAllSubmatch(src, -1) {
		registered[string(m[1])] = true
	}
	if len(registered) == 0 {
		t.Fatal("cmd/toorjahd/main.go registers no flag")
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	tabled := make(map[string]bool)
	for _, m := range flagRowRE.FindAllSubmatch(readme, -1) {
		tabled[string(m[1])] = true
	}
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		if !tabled[name] {
			t.Errorf("toorjahd registers -%s, but README's flag table lacks it", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(tabled)) {
		if !registered[name] {
			t.Errorf("README's flag table lists -%s, which toorjahd does not register", name)
		}
	}
}

// expandBraces spells out every name a brace group stands for:
// toorjah_cache_{hits,misses}_total is toorjah_cache_hits_total and
// toorjah_cache_misses_total.
func expandBraces(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, expandBraces(name[:open]+alt+name[end+1:])...)
	}
	return out
}

var (
	declaredRE  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	codeSpanRE  = regexp.MustCompile("`[^`]+`")
	citedRE     = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*(?:\*|\{[^}]*\})?`)
	familyRE    = regexp.MustCompile(`"(toorjah_[a-z_]+)"`)
	flagRE      = regexp.MustCompile(`\bflag\.(?:String|Int|Int64|Bool|Duration|Var)\((?:&\w+, )?"([a-z0-9-]+)"`)
	flagRowRE   = regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")
	citedPathRE = regexp.MustCompile(`^(?:cmd|internal|examples|bench)/`)
	fuzzLineRE  = regexp.MustCompile(`(?m)-fuzz '\^(Fuzz\w+)\$'.* (\.\S*)$`)
)

// citedTests returns the test, benchmark and fuzz target names a markdown
// file cites in code: in inline code spans and anywhere in fenced blocks.
func citedTests(t *testing.T, path string) []string {
	t.Helper()
	spans, fenced := docCode(t, path)
	var names []string
	for _, c := range append(spans, fenced...) {
		names = append(names, citedRE.FindAllString(c, -1)...)
	}
	return names
}

// docCode returns a markdown file's inline code spans, which never cross a
// blank line, and the lines of its fenced blocks.
func docCode(t *testing.T, path string) (spans, fenced []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var para strings.Builder
	flush := func() {
		spans = append(spans, codeSpanRE.FindAllString(para.String(), -1)...)
		para.Reset()
	}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			flush()
			inFence = !inFence
		case inFence:
			fenced = append(fenced, line)
		case trimmed == "":
			flush()
		default:
			para.WriteString(line + "\n")
		}
	}
	flush()
	return spans, fenced
}
