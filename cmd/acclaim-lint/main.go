// Command acclaim-lint runs the project's six invariant analyzers
// (internal/lint) over the tree: determinism in the tuning packages,
// zero-alloc hot-path annotations, lock and typed-atomic discipline,
// obs metric naming, frozen-snapshot immutability, and goroutine
// lifecycle ownership. It is stdlib-only — go/parser and go/types with
// the source importer — so CI needs nothing beyond the Go toolchain.
//
// Usage:
//
//	go run ./cmd/acclaim-lint ./...
//	go run ./cmd/acclaim-lint ./internal/core ./internal/forest/...
//	go run ./cmd/acclaim-lint -json ./... > lint.json
//
// Exit codes (shared with cmd/benchguard): 0 = clean, 1 = findings,
// 2 = tool error (bad flags, unparseable or untypecheckable source).
// Note `go run` collapses any nonzero child status to 1; build the
// binary to observe the 1-vs-2 distinction. Human-readable findings go
// to stderr; -json writes the diagnostics array (the CI artifact) to
// stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"acclaim/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "write the diagnostics array as JSON to stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: acclaim-lint [flags] [packages]\n\n"+
				"Runs the ACCLAiM project-invariant analyzers: %s.\n"+
				"Packages default to ./... relative to the module root.\n\n"+
				"Exit codes: 0 = clean, 1 = findings, 2 = tool error.\n\n",
			strings.Join(checkNames(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}

	pkgs, err := lint.Load(root, patterns...)
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(pkgs, lint.DefaultAnalyzers())

	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if *jsonOut {
		data, err := lint.MarshalDiagnostics(diags)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "acclaim-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "acclaim-lint: %d package(s) clean\n", len(pkgs))
}

func checkNames() []string {
	var names []string
	for _, a := range lint.DefaultAnalyzers() {
		names = append(names, a.Name)
	}
	return names
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, so the tool runs correctly from any subdirectory.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// fatal reports a tool error on the shared benchguard/acclaim-lint
// convention: findings exit 1, tool breakage exits 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acclaim-lint:", err)
	os.Exit(2)
}
