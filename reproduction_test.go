//go:build !race

// The reproduction's output bytes, pinned. The race detector build
// leaves these tests out: they only compare bytes, and under it the grid
// takes minutes.

package eree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// figureCSVSHA256 pins every CSV that
//
//	go run ./cmd/experiments -all -trials 20 -csv DIR
//
// writes (the default-scale dataset at seed 1). A change that moves one
// updates its value here and says why in CHANGES.md.
var figureCSVSHA256 = map[string]string{
	"figure1.csv":  "a2cdbdeeadcf7cab70b34547c04abdc3dd81b5ae7a176e038aa5411baf63cc8e",
	"figure2.csv":  "570285c888698afebd9512e48e22043a8aa6b62e9deb789f1aa726c953f5682a",
	"figure3.csv":  "5f80c9bd6cbc768e7b17900b74947917227b1d1f421fdb875cb4d7af212efea5",
	"figure4.csv":  "a5f820bc42c3d99b5ad730b0bb9d36eed5dace0b903ac8c01c6ca01a7df152ae",
	"figure5.csv":  "a6e298aab4bd2de29446c21f541ff370f12b53e6d28e319ea1f83506d97679e4",
	"finding6.csv": "abed226a631cf76f9b7ff32f29b34f186b924c620a6da649ddc1d1bd0844b5da",
}

// buildPrograms compiles the packages into a fresh directory, one binary
// per package named after its last path element.
func buildPrograms(t *testing.T, pkgs ...string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not found: %v", err)
	}
	dir := t.TempDir()
	cmd := exec.Command(goTool, append([]string{"build", "-o", dir + string(filepath.Separator)}, pkgs...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %v: %v\n%s", pkgs, err, out)
	}
	return dir
}

// TestFigureCSVsPinned runs the paper's evaluation at default scale and
// 20 trials, as cmd/experiments does, and compares each CSV's SHA-256
// with its pin.
func TestFigureCSVsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the default-scale grid (seconds)")
	}
	bin := buildPrograms(t, "./cmd/experiments")
	out := t.TempDir()
	cmd := exec.Command(filepath.Join(bin, "experiments"), "-all", "-trials", "20", "-csv", out)
	if log, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("experiments: %v\n%s", err, log)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	written := make(map[string]bool)
	for _, e := range entries {
		written[e.Name()] = true
		want, pinned := figureCSVSHA256[e.Name()]
		if !pinned {
			t.Errorf("%s: written but not pinned", e.Name())
			continue
		}
		raw, err := os.ReadFile(filepath.Join(out, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: SHA-256 %s, want %s", e.Name(), got, want)
		}
	}
	for name := range figureCSVSHA256 {
		if !written[name] {
			t.Errorf("%s: pinned but not written", name)
		}
	}
}

// TestExamplesOutputPinned builds every examples/* program and compares
// its stdout with testdata/examples/<name>.txt. A change that moves one
// regenerates it (go run ./examples/<name> > testdata/examples/<name>.txt)
// and says why in CHANGES.md.
func TestExamplesOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	bin := buildPrograms(t, "./examples/...")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".txt"))
			if err != nil {
				t.Fatalf("no pinned output: %v", err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("stdout differs from its pin:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}
