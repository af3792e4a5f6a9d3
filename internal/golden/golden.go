// Package golden compares test output against checked-in golden files.
// Tests pass their own -update flag; with it set, Check rewrites the
// file instead of comparing.
package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check fails tb unless got equals the contents of the file at path.
// With update set it writes got to path (creating directories) instead.
// A mismatch reports the first differing line.
func Check(tb testing.TB, path, got string, update bool) {
	tb.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			tb.Fatal(err)
		}
		tb.Logf("golden file %s updated (%d bytes)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w || i >= len(gl) || i >= len(wl) {
			tb.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
