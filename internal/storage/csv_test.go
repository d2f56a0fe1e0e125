package storage

import (
	"reflect"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	rows, err := ReadCSVRows("r", 2, strings.NewReader("a,1\nb,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{"a", "1"}, {"b", "2"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
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
			rows, err := ReadCSVRows("r", 2, strings.NewReader(c.in))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != c.want {
				t.Errorf("rows = %v, want %d", rows, c.want)
			}
		})
	}
	// BOM stripped from the first field's value, not kept as data.
	rows, err := ReadCSVRows("r", 2, strings.NewReader("\xef\xbb\xbfa,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{"a", "1"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("BOM leaked into data: %q", rows)
	}
}

// TestReadCSVQuotedEmptyIsData: a quoted empty field is a record, not a
// blank line — the whitespace tolerance must not swallow it.
func TestReadCSVQuotedEmptyIsData(t *testing.T) {
	rows, err := ReadCSVRows("r", 1, strings.NewReader("a\n\"\"\nb\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{"a"}, {""}, {"b"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %q, want a, \"\", b", rows)
	}
	rows, err = ReadCSVRows("r", 2, strings.NewReader("a,\"\"\n  \"\",b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{"a", ""}, {"", "b"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %q", rows)
	}
}

// TestReadCSVQuotedMultilineField: whitespace-only lines inside a quoted
// multi-line field are field content, not blank lines, and must survive.
func TestReadCSVQuotedMultilineField(t *testing.T) {
	rows, err := ReadCSVRows("r", 2, strings.NewReader("a,\"x\n   \ny\"\nb,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{"a", "x\n   \ny"}, {"b", "2"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %q, want the quoted field intact", rows)
	}
	// Escaped quotes inside a field keep the quote tracking honest.
	rows, err = ReadCSVRows("r", 2, strings.NewReader("a,\"say \"\"hi\"\"\"\n   \nb,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{"a", `say "hi"`}, {"b", "2"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %q", rows)
	}
}

// TestReadCSVLineNumbersCountBlanks: erased blank lines still count toward
// the line number reported in errors.
func TestReadCSVLineNumbersCountBlanks(t *testing.T) {
	_, err := ReadCSVRows("r", 2, strings.NewReader("a,1\n   \nb,2,3\n"))
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q should name line 3", err)
	}
}

func TestReadCSVErrorsNameLine(t *testing.T) {
	_, err := ReadCSVRows("r", 2, strings.NewReader("a,1\nb,2,3\n"))
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
	for _, want := range []string{"table r", "line 2", "3 field(s)", "want 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	_, err = ReadCSVRows("r", 2, strings.NewReader("a,1\n\"unterminated\n"))
	if err == nil {
		t.Fatal("bad quoting accepted")
	}
	if !strings.Contains(err.Error(), "table r") || !strings.Contains(err.Error(), "2") {
		t.Errorf("quote error lacks table/line context: %q", err)
	}
}
