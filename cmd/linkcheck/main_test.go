package main

import (
	"io/fs"
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
// prefixes.
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
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range declaredRE.FindAllSubmatch(src, -1) {
			declared = append(declared, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		for _, cited := range citedTests(t, f) {
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
}

var (
	declaredRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	codeSpanRE = regexp.MustCompile("`[^`]+`")
	citedRE    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*(?:\*|\{[^}]*\})?`)
)

// citedTests returns the test, benchmark and fuzz target names a markdown
// file cites in code: in inline code spans, which never cross a blank line,
// and anywhere in fenced blocks.
func citedTests(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var code []string
	var para strings.Builder
	flush := func() {
		code = append(code, codeSpanRE.FindAllString(para.String(), -1)...)
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
			code = append(code, line)
		case trimmed == "":
			flush()
		default:
			para.WriteString(line + "\n")
		}
	}
	flush()
	var names []string
	for _, c := range code {
		names = append(names, citedRE.FindAllString(c, -1)...)
	}
	return names
}
