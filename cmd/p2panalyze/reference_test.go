package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/core"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filter"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from the current code")

const (
	// goldenPath pins what the reference run's readers print: `p2panalyze
	// report`, then `p2panalyze filter -train-frac 0.25 -k 10`.
	goldenPath = "testdata/reference_report.golden"
	// experimentsPath pins what each ablation and extension measures, one
	// labelled number a line.
	experimentsPath = "testdata/experiments.golden"
	// seed is the reference run's seed, and every ablation's.
	seed = 2006
)

var reference struct {
	once  sync.Once
	trace *dataset.Trace
	err   error
}

// referenceTrace runs the study `p2pstudy -days 7 -queries-per-day 72
// -seed 2006` runs, once per test process, and returns its trace written as
// JSONL and decoded the way p2panalyze reads it.
func referenceTrace(t *testing.T) *dataset.Trace {
	t.Helper()
	reference.once.Do(func() {
		trace, err := runStudy(core.StudyConfig{
			Days: 7, QueriesPerDay: 72, ProgressEvery: 24 * time.Hour,
			LimeWire: &netsim.LimeWireConfig{Seed: seed},
			OpenFT:   &netsim.OpenFTConfig{Seed: seed},
		})
		if err != nil {
			reference.err = err
			return
		}
		var buf bytes.Buffer
		if reference.err = trace.WriteJSONL(&buf); reference.err == nil {
			reference.trace, reference.err = dataset.ReadJSONL(&buf)
		}
	})
	if reference.err != nil {
		t.Fatal(reference.err)
	}
	return reference.trace
}

// runStudy runs one study at the reference seed.
func runStudy(cfg core.StudyConfig) (*dataset.Trace, error) {
	cfg.Seed = seed
	study, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	return study.Run()
}

// TestReferenceReport pins every table and figure of the reference run
// byte for byte, so a change that moves a reproduced number shows it in
// its diff. Refresh after an intended change with
//
//	go test ./cmd/p2panalyze/ -run 'TestReferenceReport|TestAblationsAndExtensions' -update
func TestReferenceReport(t *testing.T) {
	tr := referenceTrace(t)
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
	checkGolden(t, goldenPath, buf.Bytes())
}

// polymorphicCatalog is the LimeWire catalog with its top family
// size-polymorphic: 64 sizes, 512 bytes apart, instead of one.
func polymorphicCatalog() *malware.Catalog {
	c := malware.LimeWireCatalog()
	top := c.Families[0]
	sizes := make([]int64, 64)
	for i := range sizes {
		sizes[i] = top.Sizes[0] + int64(i)*512
	}
	top.Sizes = sizes
	return c
}

// A measure is one number an experiment reads off its trace.
type measure struct{ quantity, value string }

func percent(share float64) string { return fmt.Sprintf("%.2f%%", 100*share) }

// experiments are EXPERIMENTS.md's ablations and extensions. Each runs one
// study at the reference seed (a nil study reads the reference trace) and
// measures the quantities the doc quotes; a golden line is labelled
// "name: quantity", as the doc's Quantity column.
var experiments = []struct {
	name    string
	study   *core.StudyConfig
	measure func(tr *dataset.Trace) []measure
}{
	{
		name: "No query echo",
		study: &core.StudyConfig{Days: 1, QueriesPerDay: 80,
			LimeWire: &netsim.LimeWireConfig{Seed: seed, EchoHosts: -1}},
		measure: func(tr *dataset.Trace) []measure {
			return []measure{{"LimeWire malicious share of downloadable responses",
				percent(analysis.MalwarePrevalence(tr)[dataset.LimeWire].Share)}}
		},
	},
	{
		name: "4 KiB size tolerance",
		measure: func(tr *dataset.Trace) []measure {
			train, eval := filter.SplitTrace(tr, 0.25)
			size := filter.TrainSizeFilter(train, dataset.LimeWire, 10)
			size.Tolerance = 4096
			r := filter.Evaluate(size, eval, dataset.LimeWire)
			return []measure{
				{"size-based filter detection", percent(r.DetectionRate)},
				{"size-based filter false positives", percent(r.FalsePositiveRate)},
			}
		},
	},
	{
		name: "Top family with 64 sizes",
		study: &core.StudyConfig{Days: 1, QueriesPerDay: 80,
			LimeWire: &netsim.LimeWireConfig{Seed: seed, Catalog: polymorphicCatalog()}},
		measure: func(tr *dataset.Trace) []measure {
			train, eval := filter.SplitTrace(tr, 0.3)
			detection := func(k int) string {
				return percent(filter.Evaluate(filter.TrainSizeFilter(train, dataset.LimeWire, k), eval, dataset.LimeWire).DetectionRate)
			}
			return []measure{
				{"size-based filter detection, 3 sizes", detection(3)},
				{"size-based filter detection, every size", detection(0)},
			}
		},
	},
	{
		name: "Flat search",
		study: &core.StudyConfig{Days: 1, QueriesPerDay: 120,
			OpenFT: &netsim.OpenFTConfig{Seed: seed, SearchNodes: 1}},
		measure: func(tr *dataset.Trace) []measure {
			top := analysis.TopMalware(tr, dataset.OpenFT, 1)
			return []measure{
				{"OpenFT malicious share of downloadable responses",
					percent(analysis.MalwarePrevalence(tr)[dataset.OpenFT].Share)},
				{"OpenFT hosts serving the top virus",
					strconv.Itoa(len(analysis.HostConcentration(tr, dataset.OpenFT, top[0].Family)))},
			}
		},
	},
	{
		name: "Fake content",
		study: &core.StudyConfig{Days: 1, QueriesPerDay: 80,
			LimeWire: &netsim.LimeWireConfig{Seed: seed, FakeFileShare: 0.35}},
		measure: func(tr *dataset.Trace) []measure {
			return []measure{{"downloads whose size differs from the advertised size",
				percent(analysis.SizeLieRate(tr, dataset.LimeWire).Rate)}}
		},
	},
}

// TestAblationsAndExtensions runs each ablation and extension once and pins
// what it measures in experimentsPath. -update refreshes it, as it does the
// reference report.
func TestAblationsAndExtensions(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range experiments {
		var tr *dataset.Trace
		if e.study == nil {
			tr = referenceTrace(t)
		} else {
			var err error
			if tr, err = runStudy(*e.study); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		}
		for _, m := range e.measure(tr) {
			fmt.Fprintf(&buf, "%-72s %s\n", e.name+": "+m.quantity, m.value)
		}
	}
	checkGolden(t, experimentsPath, buf.Bytes())
}

// referenceSources locates in goldenPath each reference-run number that a
// Quantity cell of EXPERIMENTS.md names: the first group of the pattern is
// the number. Any other Quantity cell is a label of experimentsPath.
var referenceSources = map[string]string{
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
	"Deployment what-if: infection rate, no filter":             `(?m)^  none +downloads=\d+ +infections=\d+ +rate=([\d.]+)%`,
	"Deployment what-if: infection rate, LimeWire built-in":     `(?m)^  limewire-builtin +downloads=\d+ +infections=\d+ +rate=([\d.]+)%`,
	"Deployment what-if: infection rate, size-based filter":     `(?m)^  size-based +downloads=\d+ +infections=\d+ +rate=([\d.]+)%`,
}

// goldenTables are EXPERIMENTS.md's tables that repeat a table of
// goldenPath: a row's first word is the golden's row name, and cols maps a
// column to the golden's name for it where the two differ.
var goldenTables = []struct {
	heading, title string
	cols           map[string]string
}{
	{"### T1", "== T1: Data collection summary ==", map[string]string{"unique files": "files", "unique sources": "sources"}},
	{"### T5", "== T5: Filter comparison ==", map[string]string{"detection": "rate", "false positives": "fp-rate"}},
	{"### F5", "== F5: Size-filter sweep over block-list length ==", map[string]string{"false positives": "fp-rate"}},
}

// quantityTables are EXPERIMENTS.md's tables whose Quantity cell names
// where its Measured cell comes from.
var quantityTables = []string{"## Headline comparison", "## Ablations", "## Extensions"}

var (
	number   = regexp.MustCompile(`\b\d+(?:,\d{3})*(?:\.\d+)?%?`)
	codeSpan = regexp.MustCompile("`[^`]*`")
)

// TestExperimentsMatchReference checks every number EXPERIMENTS.md measures
// against the goldens, rounded to the digits its cell shows: the Measured
// cells of the headline, ablation and extension tables, and every cell of
// T1, T5 and F5. Prose may quote only the numbers those cells and the
// headline's Paper column show, and the doc may hold no other table. Each
// backticked name in the headline's "Set by" column must be declared in the
// repository's Go source.
func TestExperimentsMatchReference(t *testing.T) {
	doc := readFile(t, "../../EXPERIMENTS.md")
	golden := readFile(t, goldenPath)
	// measures maps each experimentsPath label to its number.
	measures := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(readFile(t, experimentsPath))), "\n") {
		f := strings.Fields(line)
		measures[strings.Join(f[:len(f)-1], " ")] = f[len(f)-1]
	}

	// shown holds every number a checked cell or the Paper column shows.
	shown := make(map[string]bool)
	show := func(cell string) {
		for _, n := range number.FindAllString(cell, -1) {
			shown[strings.ReplaceAll(n, ",", "")] = true
		}
	}
	check := func(where, cell, value string) {
		checkCell(t, where, cell, value)
		show(cell)
	}

	for _, heading := range quantityTables {
		rows := markdownTable(t, doc, heading)
		quantity, cell := column(t, rows[0], "Quantity"), column(t, rows[0], "Measured")
		for _, row := range rows[1:] {
			q := row[quantity]
			value, ok := measures[q]
			if src, ref := referenceSources[q]; ref {
				m := regexp.MustCompile(src).FindSubmatch(golden)
				if m == nil {
					t.Errorf("%q: %s matches nothing in %s", q, src, goldenPath)
					continue
				}
				value, ok = string(m[1]), true
			}
			if !ok {
				t.Errorf("%q names no number in %s or %s", q, goldenPath, experimentsPath)
				continue
			}
			check(q, row[cell], value)
		}
	}

	headline := markdownTable(t, doc, quantityTables[0])
	quantity := column(t, headline[0], "Quantity")
	paper, setBy := column(t, headline[0], "Paper"), column(t, headline[0], "Set by")
	names := declaredNames(t)
	for _, row := range headline[1:] {
		show(row[paper])
		spans := codeSpan.FindAllString(row[setBy], -1)
		if len(spans) == 0 && row[setBy] != "emergent" {
			t.Errorf("%q: Set by names no identifier and does not say emergent", row[quantity])
		}
		for _, s := range spans {
			if name := strings.Trim(s, "`"); !names[name] {
				t.Errorf("%q: Set by names %s, which no Go source declares", row[quantity], name)
			}
		}
	}

	for _, tab := range goldenTables {
		table := goldenTable(t, golden, tab.title)
		rows := markdownTable(t, doc, tab.heading)
		for _, row := range rows[1:] {
			name := strings.Fields(row[0])[0]
			for j := 1; j < len(row); j++ {
				col := rows[0][j]
				if g, ok := tab.cols[col]; ok {
					col = g
				}
				check(tab.heading+" "+name+" "+rows[0][j], row[j], table[name][col])
			}
		}
	}

	headings := append([]string{}, quantityTables...)
	for _, tab := range goldenTables {
		headings = append(headings, tab.heading)
	}
	checkProse(t, doc, shown, headings)
}

// checkProse fails on a table under a heading other than the checked ones,
// and on a number outside tables and code that shown does not hold.
func checkProse(t *testing.T, doc []byte, shown map[string]bool, checked []string) {
	t.Helper()
	heading, fenced, inTable := "", false, false
	for i, line := range strings.Split(string(doc), "\n") {
		table := !fenced && strings.HasPrefix(line, "|")
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case fenced:
		case table:
			if !inTable && !slices.ContainsFunc(checked, func(h string) bool { return strings.HasPrefix(heading, h) }) {
				t.Errorf("EXPERIMENTS.md:%d: the table under %q is not one the test checks", i+1, heading)
			}
		default:
			if strings.HasPrefix(line, "#") {
				heading = line
			}
			for _, n := range number.FindAllString(codeSpan.ReplaceAllString(line, ""), -1) {
				if !shown[strings.ReplaceAll(n, ",", "")] {
					t.Errorf("EXPERIMENTS.md:%d: %s is a number no checked cell shows", i+1, n)
				}
			}
		}
		inTable = table
	}
}

// declaredNames returns every name the repository's Go source declares at
// package level, as a method or as a struct field.
func declaredNames(t *testing.T) map[string]bool {
	t.Helper()
	const root = "../.."
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					for _, id := range field.Names {
						names[id.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// column returns the index of the named column in a table's header row.
func column(t *testing.T, header []string, name string) int {
	t.Helper()
	for i, h := range header {
		if h == name {
			return i
		}
	}
	t.Fatalf("EXPERIMENTS.md: no %q column in %q", name, header)
	return -1
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
		case f[0] == "network" || f[0] == "filter" || f[0] == "k":
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

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s at %s", path, firstDiff(want, got))
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
