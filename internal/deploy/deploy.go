// Package deploy simulates deploying a response filter inside a servent
// and measures the user-level outcome: how many infections a population of
// downloading users suffers with and without the filter.
//
// The paper's actionable claim is that size-based filtering "could block a
// large portion of malicious files with a very low rate of false
// positives"; this package turns a measured trace into that counterfactual.
// Users repeatedly (1) run a query drawn from the trace, (2) pick one
// downloadable result, preferring what the servent shows them — with a
// filter deployed, blocked responses never reach the result list — and
// (3) get infected if the download was malware.
package deploy

import (
	"fmt"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filter"
	"p2pmalware/internal/stats"
)

// The simulated population: users downloaders, each making
// downloadsPerUser download attempts.
const (
	users            = 200
	downloadsPerUser = 20
)

// Config seeds the simulated user population.
type Config struct {
	// Seed drives the users' random choices.
	Seed uint64
}

// Outcome summarizes a deployment simulation.
type Outcome struct {
	// Filter names the deployed filter ("none" for the baseline).
	Filter string
	// Attempts is the number of download attempts simulated.
	Attempts int
	// Downloads completed (an unblocked result existed).
	Downloads int
	// Infections is the number of completed downloads that were malware.
	Infections int
	// Blocked counts results hidden by the filter across all result lists
	// the users saw.
	Blocked int
	// BlockedClean counts clean results hidden (the user-facing cost of
	// false positives).
	BlockedClean int
	// InfectionRate is Infections / Downloads.
	InfectionRate float64
}

// queryGroup is one query's downloadable, labelled result list.
type queryGroup struct {
	records []*dataset.ResponseRecord
}

// Simulate runs the user population against the trace's result lists with
// the given filter deployed (nil = no filter). Results are deterministic
// for a given (trace, filter, config).
func Simulate(tr *dataset.Trace, nw dataset.Network, f filter.Filter, cfg Config) (Outcome, error) {
	name := "none"
	if f != nil {
		name = f.Name()
	}
	out := Outcome{Filter: name}

	// Group labelled downloadable responses by query instance, keyed by
	// (query, timestamp) — one group per query the instrumented client
	// issued.
	groupsByKey := make(map[string]*queryGroup)
	var groups []*queryGroup
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Network != nw || !r.Downloadable || !r.Downloaded {
			continue
		}
		key := r.Query + "|" + r.Time.String()
		g := groupsByKey[key]
		if g == nil {
			g = &queryGroup{}
			groupsByKey[key] = g
			groups = append(groups, g)
		}
		g.records = append(g.records, r)
	}
	if len(groups) == 0 {
		return out, fmt.Errorf("deploy: trace has no labelled downloadable responses for %s", nw)
	}

	rng := stats.NewRNG(cfg.Seed, 0xDE91)
	for u := 0; u < users; u++ {
		for d := 0; d < downloadsPerUser; d++ {
			out.Attempts++
			g := groups[rng.IntN(len(groups))]
			// The servent filters the result list before the user sees it.
			visible := g.records
			if f != nil {
				visible = make([]*dataset.ResponseRecord, 0, len(g.records))
				for _, r := range g.records {
					if f.Blocks(r) {
						out.Blocked++
						if !r.Malicious() {
							out.BlockedClean++
						}
						continue
					}
					visible = append(visible, r)
				}
			}
			if len(visible) == 0 {
				continue // everything filtered; the user downloads nothing
			}
			pick := visible[rng.IntN(len(visible))]
			out.Downloads++
			if pick.Malicious() {
				out.Infections++
			}
		}
	}
	if out.Downloads > 0 {
		out.InfectionRate = float64(out.Infections) / float64(out.Downloads)
	}
	return out, nil
}

// Compare runs the same user population under several filters (nil entries
// mean "no filter") and returns the outcomes in order.
func Compare(tr *dataset.Trace, nw dataset.Network, filters []filter.Filter, cfg Config) ([]Outcome, error) {
	out := make([]Outcome, 0, len(filters))
	for _, f := range filters {
		o, err := Simulate(tr, nw, f, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}
