package storage

import (
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	tab, err := ReadCSV("r", 2, strings.NewReader("a,1\nb,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Snapshot().Len() != 2 || !tab.Snapshot().Contains(Row{"a", "1"}) || !tab.Snapshot().Contains(Row{"b", "2"}) {
		t.Errorf("rows = %v", tab.Snapshot().Rows())
	}
}

func TestReadCSVTolerance(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want int
	}{
		{"trailing blank line", "a,1\nb,2\n\n", 2},
		{"several trailing blanks", "a,1\n\n\n\n", 1},
		{"whitespace-only line", "a,1\n   \nb,2\n", 2},
		{"tab-only line", "a,1\n\t\nb,2\n", 2},
		{"utf8 BOM", "\xef\xbb\xbfa,1\n", 1},
		{"leading whitespace before fields", "  a,  1\n\tb,\t2\n", 2},
		{"no final newline", "a,1\nb,2", 2},
		{"empty input", "", 0},
		{"only blank lines", "\n  \n\n", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tab, err := ReadCSV("r", 2, strings.NewReader(c.in))
			if err != nil {
				t.Fatal(err)
			}
			if tab.Snapshot().Len() != c.want {
				t.Errorf("rows = %v, want %d", tab.Snapshot().Rows(), c.want)
			}
		})
	}
	// BOM stripped from the first field's value, not kept as data.
	tab, err := ReadCSV("r", 2, strings.NewReader("\xef\xbb\xbfa,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Snapshot().Contains(Row{"a", "1"}) {
		t.Errorf("BOM leaked into data: %v", tab.Snapshot().Rows())
	}
}

// TestReadCSVQuotedEmptyIsData: a quoted empty field is a record, not a
// blank line — the whitespace tolerance must not swallow it.
func TestReadCSVQuotedEmptyIsData(t *testing.T) {
	tab, err := ReadCSV("r", 1, strings.NewReader("a\n\"\"\nb\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Snapshot().Len() != 3 || !tab.Snapshot().Contains(Row{""}) {
		t.Errorf("rows = %v, want a, \"\", b", tab.Snapshot().Rows())
	}
	tab2, err := ReadCSV("r", 2, strings.NewReader("a,\"\"\n  \"\",b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Snapshot().Len() != 2 || !tab2.Snapshot().Contains(Row{"a", ""}) || !tab2.Snapshot().Contains(Row{"", "b"}) {
		t.Errorf("rows = %v", tab2.Snapshot().Rows())
	}
}

// TestReadCSVQuotedMultilineField: whitespace-only lines inside a quoted
// multi-line field are field content, not blank lines, and must survive.
func TestReadCSVQuotedMultilineField(t *testing.T) {
	tab, err := ReadCSV("r", 2, strings.NewReader("a,\"x\n   \ny\"\nb,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Snapshot().Len() != 2 || !tab.Snapshot().Contains(Row{"a", "x\n   \ny"}) {
		t.Errorf("rows = %q, want the quoted field intact", tab.Snapshot().Rows())
	}
	// Escaped quotes inside a field keep the quote tracking honest.
	tab2, err := ReadCSV("r", 2, strings.NewReader("a,\"say \"\"hi\"\"\"\n   \nb,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Snapshot().Len() != 2 || !tab2.Snapshot().Contains(Row{"a", `say "hi"`}) {
		t.Errorf("rows = %q", tab2.Snapshot().Rows())
	}
}

// TestReadCSVLineNumbersCountBlanks: erased blank lines still count toward
// the line number reported in errors.
func TestReadCSVLineNumbersCountBlanks(t *testing.T) {
	_, err := ReadCSV("r", 2, strings.NewReader("a,1\n   \nb,2,3\n"))
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q should name line 3", err)
	}
}

func TestReadCSVErrorsNameLine(t *testing.T) {
	_, err := ReadCSV("r", 2, strings.NewReader("a,1\nb,2,3\n"))
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
	for _, want := range []string{"table r", "line 2", "3 field(s)", "want 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	_, err = ReadCSV("r", 2, strings.NewReader("a,1\n\"unterminated\n"))
	if err == nil {
		t.Fatal("bad quoting accepted")
	}
	if !strings.Contains(err.Error(), "table r") || !strings.Contains(err.Error(), "2") {
		t.Errorf("quote error lacks table/line context: %q", err)
	}
}
