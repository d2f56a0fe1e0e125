package service

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

// TestDiskFormatIsPinned holds the bytes the durable path writes to hex
// captured once: the snapshot a first boot writes for a schema with one
// CSV-seeded relation and one CSV-less one (a snapshot-rows frame each),
// then the frames of one logged insert and one logged delete. Whatever types
// carry a batch in memory, every byte on disk stays as it is.
func TestDiskFormatIsPinned(t *testing.T) {
	sch := schema.MustParse("pub^io(Paper, Person)\nbare^o(X)")
	csvDir, walDir := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(csvDir, "pub.csv"), []byte("p1,alice\np2,bob\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, l, err := OpenDurable(sch, csvDir, quietWALOpts(walDir))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendCommit(storage.CommitEvent{Relation: "pub", Arity: 2, Op: storage.OpInsert, Epoch: 3,
		Rows: []storage.Row{{"p3", "car\x00ol"}, {"p4", ""}}})
	l.AppendCommit(storage.CommitEvent{Relation: "pub", Arity: 2, Op: storage.OpDelete, Epoch: 4,
		Rows: []storage.Row{{"p2", "bob"}}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ glob, want string }{
		{"snap-*.snap", "" +
			"00000015c3c470da" + "03" + "0000000000000001" + "0004" + "62617265" + "0001" + "00000000" +
			"0000003090bb85d2" + "03" + "0000000000000002" + "0003" + "707562" + "0002" + "00000002" +
			"00000002" + "7031" + "00000005" + "616c696365" + "00000002" + "7032" + "00000003" + "626f62"},
		{"wal-*.log", "" +
			"0000002e1555a0b2" + "01" + "0000000000000003" + "0003" + "707562" + "0002" + "00000002" +
			"00000002" + "7033" + "00000006" + "636172006f6c" + "00000002" + "7034" + "00000000" +
			"000000218299e238" + "02" + "0000000000000004" + "0003" + "707562" + "0002" + "00000001" +
			"00000002" + "7032" + "00000003" + "626f62"},
	} {
		files, err := filepath.Glob(filepath.Join(walDir, c.glob))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s matches %v (%v), want one file", c.glob, files, err)
		}
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%s holds\n%s\nwant\n%s", filepath.Base(files[0]), got, c.want)
		}
	}
}
