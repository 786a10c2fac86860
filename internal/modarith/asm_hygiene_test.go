package modarith

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Assembly hygiene: structural checks that keep the asm tiers honest without
// executing them, so they run on EVERY architecture (including the noasm CI
// leg, where they guard the files for the architectures not being built):
//
//   - every .s file is gated behind `!noasm` (the pure-Go build must contain
//     zero assembly);
//   - every TEXT symbol has exactly one Go stub declaration in the package;
//   - every stub that takes a slice is marked //go:noescape (the kernels
//     must not force their rows onto the heap);
//   - every vec stub name encodes its tier (Go oracle fallback discipline:
//     a kernel symbol without a tier suffix has no oracle to diff against).
//
// `go vet -asmdecl` (Makefile `vet` target and the CI lint job) separately
// checks that the asm frame/argument layout matches these declarations.

var (
	textSymRe = regexp.MustCompile(`(?m)^TEXT ·([A-Za-z0-9_]+)\(SB\)`)
	stubRe    = regexp.MustCompile(`(?m)^(//go:noescape\n)?func ([A-Za-z0-9_]+)\(([^)]*)\)`)
)

func TestAsmHygiene(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}

	// Collect stub declarations (bodyless funcs) from non-test Go files.
	type stub struct {
		file      string
		noescape  bool
		params    string
		hasSlices bool
	}
	stubs := map[string]stub{}
	var asmFiles []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".s"):
			asmFiles = append(asmFiles, name)
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, match := range stubRe.FindAllStringSubmatch(string(src), -1) {
				// A stub has no body: the declaration line must not be
				// followed by '{' — cheap check: the full match ends at ')'
				// and the next char in src is '\n'.
				idx := strings.Index(string(src), match[0])
				rest := string(src)[idx+len(match[0]):]
				if strings.HasPrefix(strings.TrimLeft(rest, " "), "{") {
					continue // regular function
				}
				// Skip methods and non-asm declarations heuristically: asm
				// stubs in this package are all lower-case vec*/cpuid/xgetbv.
				stubs[match[2]] = stub{
					file:      name,
					noescape:  match[1] != "",
					params:    match[3],
					hasSlices: strings.Contains(match[3], "[]"),
				}
			}
		}
	}
	if len(asmFiles) == 0 {
		t.Skip("no assembly files on this architecture/tags")
	}

	for _, asmFile := range asmFiles {
		src, err := os.ReadFile(asmFile)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if !strings.Contains(text, "!noasm") {
			t.Errorf("%s: missing !noasm build constraint — the noasm leg must compile zero assembly", asmFile)
		}
		syms := textSymRe.FindAllStringSubmatch(text, -1)
		if len(syms) == 0 {
			t.Errorf("%s: no TEXT symbols found", asmFile)
		}
		for _, sym := range syms {
			name := sym[1]
			st, ok := stubs[name]
			if !ok {
				t.Errorf("%s: TEXT ·%s has no Go stub declaration in the package", asmFile, name)
				continue
			}
			if st.hasSlices && !st.noescape {
				t.Errorf("%s: stub for %s takes slices but is not //go:noescape (declared in %s)", asmFile, name, st.file)
			}
			if strings.HasPrefix(name, "vec") && strings.Contains(filepath.Base(asmFile), "avx512") && !strings.HasSuffix(name, "AVX512") {
				t.Errorf("%s: kernel symbol %s should carry the AVX512 tier suffix", asmFile, name)
			}
		}
	}
}
