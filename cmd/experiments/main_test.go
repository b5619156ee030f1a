package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates testdata/figures_tiny.golden:
//
//	go test ./cmd/experiments -run FiguresTinyGolden -update
var update = flag.Bool("update", false, "rewrite the figure golden file")

// TestFiguresTinyGolden pins every figure table the command prints on
// the tiny testbed at the default seed. The simulator and the tuners
// are deterministic, so any diff without -update is a change to what
// the experiments compute.
func TestFiguresTinyGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "all", "-space", "tiny"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "figures_tiny.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		i := 0
		for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
			i++
		}
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		t.Errorf("figure tables differ from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update if the change is intended)", path, i+1, g, w)
	}
}
