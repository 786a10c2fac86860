package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "Demo",
		Headers: []string{"name", "value"},
	}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("a-longer-name", "2")
	tbl.AddNote("footnote %d", 7)
	s := tbl.String()
	for _, want := range []string{"Demo", "name", "a-longer-name", "footnote 7", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	// Columns aligned: both value cells start at the same offset.
	lines := strings.Split(s, "\n")
	var rows []string
	for _, l := range lines {
		if strings.HasPrefix(l, "alpha") || strings.HasPrefix(l, "a-longer-name") {
			rows = append(rows, l)
		}
	}
	if len(rows) != 2 || strings.Index(rows[0], "1") != strings.Index(rows[1], "2") {
		t.Fatalf("columns misaligned:\n%s", s)
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Fatal("F")
	}
	if Ms(1.5e6) != "1.50ms" {
		t.Fatal("Ms")
	}
	if GB(2.5e9) != "2.50GB" {
		t.Fatal("GB")
	}
	if X(1.62) != "1.62x" {
		t.Fatal("X")
	}
}

func TestCSV(t *testing.T) {
	tbl := &Table{Headers: []string{"a", "b"}}
	tbl.AddRow("x,y", `q"z`)
	got := tbl.CSV()
	want := "a,b\n\"x,y\",\"q\"\"z\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
