package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/core"
	"p2pmalware/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the current code")

// goldenPath pins what the reference run's readers print: `p2panalyze
// report`, then `p2panalyze filter -train-frac 0.25 -k 10`.
const goldenPath = "testdata/reference_report.golden"

// referenceReport runs the study `p2pstudy -days 7 -queries-per-day 72
// -seed 2006` runs, writes and decodes its trace the way the CLI does, and
// returns the report and filter output for it.
func referenceReport(t *testing.T) []byte {
	t.Helper()
	const seed = 2006
	study, err := core.NewStudy(core.StudyConfig{
		Seed: seed, Days: 7, QueriesPerDay: 72, ProgressEvery: 24 * time.Hour,
		LimeWire: &netsim.LimeWireConfig{Seed: seed},
		OpenFT:   &netsim.OpenFTConfig{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}

	_, report, err := parseReport(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, filter, err := parseFilter([]string{"-train-frac", "0.25", "-k", "10"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := filter(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReferenceReport pins every table and figure of the reference run
// byte for byte, so a change that moves a reproduced number shows it in
// its diff. Refresh after an intended change with
//
//	go test ./cmd/p2panalyze/ -run TestReferenceReport -update
func TestReferenceReport(t *testing.T) {
	got := referenceReport(t)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reference report differs from %s at %s", goldenPath, firstDiff(want, got))
	}
}

// firstDiff describes the first line where want and got differ.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant %q\n got %q", i+1, wl, gl)
		}
	}
	return "the final newline"
}

// headlineSources locates each headline row's Measured value in the golden:
// the first group of the pattern is the number.
var headlineSources = map[string]string{
	"LimeWire: malicious share of downloadable responses":       `(?m)^limewire +labelled=\d+ malicious=\d+ share=([\d.]+)%`,
	"OpenFT: malicious share of downloadable responses":         `(?m)^openft +labelled=\d+ malicious=\d+ share=([\d.]+)%`,
	"LimeWire: top-3 malware share of malicious responses":      `(?s)== F1 \(limewire\).*?top-3 +([\d.]+)%`,
	"OpenFT: top-3 malware share":                               `(?s)== F1 \(openft\).*?top-3 +([\d.]+)%`,
	"OpenFT: top-1 malware share":                               `(?s)== F1 \(openft\).*?top-1 +([\d.]+)%`,
	"LimeWire: malicious responses from private address ranges": `(?s)== T4:.*?limewire:.*?private +\d+ +([\d.]+)%`,
	"OpenFT: hosts serving the top virus":                       `(?m)^openft: top family \S+ served by (\d+) host`,
	"LimeWire built-in mechanisms: malware detection":           `(?m)^limewire-builtin +\d+ +([\d.]+)%`,
	"Size-based filter: malware detection":                      `(?m)^size-based +\d+ +([\d.]+)%`,
	"Size-based filter: false positives":                        `(?m)^size-based +\d+ +[\d.]+% +\d+ +([\d.]+)%`,
}

// TestExperimentsMatchReference checks every Measured cell of
// EXPERIMENTS.md's headline, T1 and T5 tables against the golden, rounded
// to the digits the cell shows.
func TestExperimentsMatchReference(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	headline := markdownTable(t, doc, "## Headline comparison")
	for _, row := range headline[1:] {
		quantity, cell := row[1], row[3]
		src, ok := headlineSources[quantity]
		if !ok {
			t.Errorf("headline row %q has no source in the golden", quantity)
			continue
		}
		m := regexp.MustCompile(src).FindSubmatch(golden)
		if m == nil {
			t.Errorf("headline row %q: %s matches nothing in the golden", quantity, src)
			continue
		}
		checkCell(t, "headline "+quantity, cell, string(m[1]))
	}

	// T1: the golden's columns are named as EXPERIMENTS.md's, less "unique".
	t1 := goldenTable(t, golden, "== T1: Data collection summary ==")
	exp := markdownTable(t, doc, "### T1")
	for _, row := range exp[1:] {
		for j := 1; j < len(row); j++ {
			col := strings.TrimPrefix(exp[0][j], "unique ")
			checkCell(t, "T1 "+row[0]+" "+col, row[j], t1[row[0]][col])
		}
	}

	// T5: a row's first word is the golden's filter name.
	t5 := goldenTable(t, golden, "== T5: Filter comparison ==")
	cols := map[string]string{"detection": "rate", "false positives": "fp-rate"}
	exp = markdownTable(t, doc, "### T5")
	for _, row := range exp[1:] {
		name := strings.Fields(row[0])[0]
		for j := 1; j < len(row); j++ {
			checkCell(t, "T5 "+name+" "+exp[0][j], row[j], t5[name][cols[exp[0][j]]])
		}
	}
}

// markdownTable returns the cells of the first table after heading, header
// row first, with the separator row dropped.
func markdownTable(t *testing.T, doc []byte, heading string) [][]string {
	t.Helper()
	_, rest, ok := strings.Cut(string(doc), "\n"+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no heading %q", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if !strings.HasPrefix(cells[0], "---") {
			rows = append(rows, cells)
		}
	}
	if len(rows) < 2 {
		t.Fatalf("EXPERIMENTS.md has no table under %q", heading)
	}
	return rows
}

// goldenTable indexes the whitespace-separated table under a golden
// section title: row name -> column name -> value.
func goldenTable(t *testing.T, golden []byte, title string) map[string]map[string]string {
	t.Helper()
	_, rest, ok := strings.Cut(string(golden), title+"\n")
	if !ok {
		t.Fatalf("golden has no section %q", title)
	}
	var header []string
	table := make(map[string]map[string]string)
	for _, line := range strings.Split(rest, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			return table
		case f[0] == "network" || f[0] == "filter":
			header = f
		case header != nil && len(f) == len(header):
			table[f[0]] = make(map[string]string)
			for i, v := range f {
				table[f[0]][header[i]] = v
			}
		}
	}
	return table
}

// checkCell fails unless cell, stripped of bold markers, a % sign and
// thousands separators, equals golden rounded to the cell's decimals.
func checkCell(t *testing.T, where, cell, golden string) {
	t.Helper()
	shown := strings.NewReplacer("*", "", "%", "", ",", "").Replace(cell)
	v, err := strconv.ParseFloat(strings.TrimSuffix(golden, "%"), 64)
	if err != nil {
		t.Errorf("%s: golden value %q: %v", where, golden, err)
		return
	}
	digits := 0
	if i := strings.IndexByte(shown, '.'); i >= 0 {
		digits = len(shown) - i - 1
	}
	scale := math.Pow10(digits)
	if want := strconv.FormatFloat(math.Round(v*scale)/scale, 'f', digits, 64); shown != want {
		t.Errorf("%s: EXPERIMENTS.md shows %s, the golden has %s (%s at that precision)", where, cell, golden, want)
	}
}
