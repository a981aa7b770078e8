// Command p2plint runs the repository's custom static-analysis suite
// (lockcheck, the interprocedural taintcheck, allocheck, and the CFG-based
// flow analyzers lockpath, blockcheck, and releasecheck — see
// internal/lint; -list prints them) over the given packages and exits
// non-zero on any finding. It is part of the CI merge gate:
//
//	go run ./cmd/p2plint ./...
//
// With no arguments it analyzes every package in the module containing the
// working directory. With -json, findings are written to stdout as a JSON
// array (machine-readable for CI artifacts and editor integrations)
// instead of the human file:line:col lines; the exit code is the same in
// both modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"p2pmalware/internal/lint"
)

// jsonDiagnostic is the machine-readable finding shape: one object per
// diagnostic, stable field names, findings already sorted by position.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of file:line:col text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: p2plint [-list] [-json] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the project lint suite; packages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "p2plint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(root, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "p2plint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "p2plint: %v\n", err)
		os.Exit(2)
	}
	if *asJSON {
		// Always an array, never null: an empty run must parse the same
		// way as a run with findings.
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "p2plint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "p2plint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the first go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("getwd: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
