// limewire-study reproduces the paper's LimeWire measurement at reduced
// scale: a few simulated days of queries against the calibrated Gnutella
// universe, then the headline numbers — malware prevalence, top-3
// concentration, and the private-address share of malicious sources.
package main

import (
	"fmt"
	"log"
	"time"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/core"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/netsim"
)

func main() {
	log.SetFlags(0)

	study, err := core.NewStudy(core.StudyConfig{
		Seed: 2006, Days: 2, QueriesPerDay: 120,
		LimeWire: &netsim.LimeWireConfig{Seed: 2006},
	})
	if err != nil {
		log.Fatal(err)
	}
	study.Progress = func(f string, a ...any) { log.Printf(f, a...) }

	fmt.Println("running the scaled-down LimeWire study (2 virtual days)...")
	start := time.Now()
	tr, err := study.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v: %d response records\n\n", time.Since(start).Round(time.Second), len(tr.Records))

	prev := analysis.MalwarePrevalence(tr)[dataset.LimeWire]
	fmt.Printf("malware prevalence in downloadable responses: %.1f%%  (paper: 68%%)\n", 100*prev.Share)

	top := analysis.TopMalware(tr, dataset.LimeWire, 3)
	fmt.Println("\ntop malware by share of malicious responses (paper: top 3 = 99%):")
	for i, f := range top {
		fmt.Printf("  %d. %-16s %6.2f%% (cumulative %.2f%%)\n", i+1, f.Family, 100*f.Share, 100*f.CumShare)
	}

	priv := analysis.PrivateShare(tr, dataset.LimeWire)
	fmt.Printf("\nmalicious responses from private address ranges: %.1f%%  (paper: 28%%)\n", 100*priv)

	fmt.Println("\nsource address classes of malicious responses:")
	for _, s := range analysis.MaliciousSources(tr, dataset.LimeWire) {
		fmt.Printf("  %-10s %7.2f%%\n", s.Class, 100*s.Share)
	}
}
