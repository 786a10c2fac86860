package main

import (
	"strings"
	"testing"

	"github.com/anaheim-sim/anaheim"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(anaheim.ExperimentIDs(), "\n") + "\n"; sb.String() != want {
		t.Fatalf("-list printed\n%q\nwant\n%q", sb.String(), want)
	}
}

func TestRunExperimentTableAndCSV(t *testing.T) {
	var table, csv strings.Builder
	if err := run([]string{"-exp", "table4"}, &table); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "table4", "-csv"}, &csv); err != nil {
		t.Fatal(err)
	}
	if table.Len() == 0 || csv.Len() == 0 {
		t.Fatalf("empty output: table %d bytes, csv %d bytes", table.Len(), csv.Len())
	}
	if table.String() == csv.String() {
		t.Fatalf("-csv must change the format:\n%s", csv.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "nosuch"}, &sb); err == nil {
		t.Fatal("want error for an unknown experiment id")
	}
	if err := run(nil, &sb); err == nil {
		t.Fatal("want error when no mode flag is given")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Fatal("want error for an unknown flag")
	}
}
