package lint

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The golden test pins the FULL suite's output over every fixture package
// byte-for-byte. The per-analyzer fixture tests check one analyzer against
// its own `// want` comments; this one catches everything they cannot: an
// analyzer starting to fire on another analyzer's fixture, a message
// rewording, a position shift from CFG construction changes, or
// nondeterministic ordering. Regenerate deliberately with:
//
//	go test ./internal/lint/ -run TestGoldenDiagnostics -update
//
// and review the diff like any other code change.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt with the current suite output")

func TestGoldenDiagnostics(t *testing.T) {
	root := filepath.Join("testdata", "src")
	var pkgDirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if len(pkgDirs) == 0 || pkgDirs[len(pkgDirs)-1] != dir {
			pkgDirs = append(pkgDirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(pkgDirs)
	if len(pkgDirs) < 8 {
		t.Fatalf("found only %d fixture packages under %s; the walk is broken", len(pkgDirs), root)
	}

	var buf bytes.Buffer
	for _, dir := range pkgDirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loadFixtureDir(dir, filepath.ToSlash(rel))
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run([]*Package{pkg}, All())
		if err != nil {
			t.Fatalf("suite over %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			fmt.Fprintf(&buf, "%s\n", d)
		}
	}

	golden := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(want, buf.Bytes()) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(buf.String(), "\n")
	max := len(wantLines)
	if len(gotLines) > max {
		max = len(gotLines)
	}
	for i := 0; i < max; i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	t.Errorf("suite output diverged from %s (%d lines golden, %d got); regenerate with -update if intended",
		golden, len(wantLines), len(gotLines))
}

// loadFixtureDir parses every .go file directly in dir into one Package
// with the given import path, mirroring how Fixture loads a single
// fixture.
func loadFixtureDir(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return &Package{Path: pkgPath, Fset: fset, Files: files}, nil
}
