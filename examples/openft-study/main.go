// openft-study reproduces the paper's OpenFT measurement at reduced scale,
// highlighting the network's very different malware ecology: ~3%
// prevalence, and a single host serving the top virus (67% of all
// malicious responses).
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
		Seed: 2006, Days: 2, QueriesPerDay: 200,
		OpenFT: &netsim.OpenFTConfig{Seed: 2006},
	})
	if err != nil {
		log.Fatal(err)
	}
	study.Progress = func(f string, a ...any) { log.Printf(f, a...) }

	fmt.Println("running the scaled-down OpenFT study (2 virtual days)...")
	start := time.Now()
	tr, err := study.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v: %d response records\n\n", time.Since(start).Round(time.Second), len(tr.Records))

	prev := analysis.MalwarePrevalence(tr)[dataset.OpenFT]
	fmt.Printf("malware prevalence in downloadable responses: %.2f%%  (paper: 3%%)\n", 100*prev.Share)

	top := analysis.TopMalware(tr, dataset.OpenFT, 5)
	fmt.Println("\ntop malware by share of malicious responses (paper: top 3 = 75%, top 1 = 67%):")
	for i, f := range top {
		fmt.Printf("  %d. %-16s %6.2f%% (cumulative %.2f%%) served by %d host(s)\n",
			i+1, f.Family, 100*f.Share, 100*f.CumShare, f.Hosts)
	}

	if len(top) > 0 {
		hosts := analysis.HostConcentration(tr, dataset.OpenFT, top[0].Family)
		fmt.Printf("\n%s host concentration (paper: served by a single host):\n", top[0].Family)
		for _, h := range hosts {
			fmt.Printf("  %-16s %d responses (%.1f%%)\n", h.Host, h.Count, 100*h.Share)
		}
	}
}
