package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/exp-all.golden")

// renderAll renders every registry entry the way `anaheim-sim exp -all`
// prints it.
func renderAll() string {
	var b strings.Builder
	for _, e := range Experiments() {
		fmt.Fprintf(&b, "=== %s ===\n%s\n", e.ID, e.Table())
	}
	return b.String()
}

// TestExpAllGolden pins every table of `anaheim-sim exp -all`, so a model
// change shows as exactly the rows it moves. Regenerate with
// go test ./internal/experiments -run TestExpAllGolden -update.
func TestExpAllGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may fuse a·b+c into one FMA and print other digits.
		t.Skipf("golden digits are amd64's; GOARCH is %s", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "exp-all.golden")
	got := renderAll()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
		}
	}
}
