// size-filter demonstrates the paper's actionable insight: train a filter
// on the most commonly seen sizes of the most popular malware using the
// first part of a trace, then evaluate it on the rest — it blocks >99% of
// malicious responses with near-zero false positives, versus ~6% for
// LimeWire's built-in mechanisms.
package main

import (
	"fmt"
	"log"

	"p2pmalware/internal/core"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filter"
	"p2pmalware/internal/netsim"
)

func main() {
	log.SetFlags(0)

	study, err := core.NewStudy(core.StudyConfig{
		Seed: 42, Days: 3, QueriesPerDay: 100,
		LimeWire: &netsim.LimeWireConfig{Seed: 42},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("collecting a 3-day trace...")
	tr, err := study.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Train on day 1, evaluate on days 2-3 — the deployment scenario.
	train, eval := filter.SplitTrace(tr, 1.0/3)
	fmt.Printf("train: %d records (day 1), eval: %d records (days 2-3)\n\n",
		len(train.Records), len(eval.Records))

	size := filter.TrainSizeFilter(train, dataset.LimeWire, 10)
	fmt.Printf("size filter learned %d characteristic sizes: %v\n\n", size.NumSizes(), size.Sizes())

	results := []filter.Result{
		filter.Evaluate(size, eval, dataset.LimeWire),
		filter.Evaluate(filter.NewBuiltinFilter(), eval, dataset.LimeWire),
		filter.Evaluate(filter.TrainHashFilter(train, dataset.LimeWire), eval, dataset.LimeWire),
	}
	fmt.Printf("%-18s %10s %10s\n", "filter", "detection", "fp-rate")
	for _, r := range results {
		fmt.Printf("%-18s %9.2f%% %9.3f%%\n", r.Filter, 100*r.DetectionRate, 100*r.FalsePositiveRate)
	}
	fmt.Println("\n(paper: size-based >99% detection vs ~6% for LimeWire's built-in mechanisms)")

	fmt.Println("\ndetection vs block-list length (F5):")
	for _, pt := range filter.SweepSizeFilter(train, eval, dataset.LimeWire, []int{1, 2, 3, 5, 10}) {
		fmt.Printf("  k=%-3d detection=%6.2f%% fp=%.3f%%\n", pt.K, 100*pt.DetectionRate, 100*pt.FalsePositiveRate)
	}
}
