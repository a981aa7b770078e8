package deploy

import (
	"fmt"
	"testing"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filter"
)

// deployTrace builds a trace where each of 10 queries has 4 downloadable
// results: 3 malicious at one characteristic size, 1 clean.
func deployTrace() *dataset.Trace {
	tr := dataset.NewTrace()
	base := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	for q := 0; q < 10; q++ {
		when := base.Add(time.Duration(q) * time.Hour)
		query := fmt.Sprintf("query %d", q)
		for i := 0; i < 3; i++ {
			tr.Add(dataset.ResponseRecord{
				Time: when, Network: dataset.LimeWire, Query: query,
				Filename: "bad.exe", Size: 184342, SourceIP: "10.0.0.1",
				Downloadable: true, Downloaded: true,
				BodyHash: "bad", Malware: "FamA",
			})
		}
		tr.Add(dataset.ResponseRecord{
			Time: when, Network: dataset.LimeWire, Query: query,
			Filename: "good.exe", Size: int64(90000 + q*100), SourceIP: "5.9.0.1",
			Downloadable: true, Downloaded: true, BodyHash: "good",
		})
	}
	return tr
}

func TestSimulateNoFilterInfectionRate(t *testing.T) {
	out, err := Simulate(deployTrace(), dataset.LimeWire, nil, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Filter != "none" || out.Attempts != 4000 || out.Downloads != 4000 {
		t.Fatalf("outcome = %+v", out)
	}
	// 3 of 4 results malicious -> ~75% infection rate.
	if out.InfectionRate < 0.70 || out.InfectionRate > 0.80 {
		t.Fatalf("infection rate = %v, want ~0.75", out.InfectionRate)
	}
}

func TestSimulateSizeFilterPreventsInfections(t *testing.T) {
	tr := deployTrace()
	f := filter.TrainSizeFilter(tr, dataset.LimeWire, 1)
	out, err := Simulate(tr, dataset.LimeWire, f, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Infections != 0 {
		t.Fatalf("infections with perfect filter = %d", out.Infections)
	}
	if out.Downloads != 4000 {
		t.Fatalf("downloads = %d (clean alternatives exist in every group)", out.Downloads)
	}
	if out.BlockedClean != 0 {
		t.Fatalf("clean blocks = %d", out.BlockedClean)
	}
	if out.Blocked == 0 {
		t.Fatal("filter blocked nothing")
	}
}

func TestSimulateEverythingFiltered(t *testing.T) {
	// If the only results are malicious and all are blocked, the user
	// downloads nothing (and is not infected).
	tr := dataset.NewTrace()
	when := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	tr.Add(dataset.ResponseRecord{
		Time: when, Network: dataset.LimeWire, Query: "only bad",
		Filename: "bad.exe", Size: 184342,
		Downloadable: true, Downloaded: true, Malware: "FamA",
	})
	f := filter.TrainSizeFilter(tr, dataset.LimeWire, 1)
	out, err := Simulate(tr, dataset.LimeWire, f, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Downloads != 0 || out.Infections != 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	tr := deployTrace()
	a, _ := Simulate(tr, dataset.LimeWire, nil, Config{Seed: 7})
	b, _ := Simulate(tr, dataset.LimeWire, nil, Config{Seed: 7})
	if a != b {
		t.Fatalf("same-seed outcomes differ: %+v vs %+v", a, b)
	}
}

func TestSimulateEmptyTraceErrors(t *testing.T) {
	if _, err := Simulate(dataset.NewTrace(), dataset.LimeWire, nil, Config{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestCompare(t *testing.T) {
	tr := deployTrace()
	size := filter.TrainSizeFilter(tr, dataset.LimeWire, 1)
	outs, err := Compare(tr, dataset.LimeWire, []filter.Filter{nil, filter.NewBuiltinFilter(), size}, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	if outs[0].Filter != "none" || outs[2].Filter != "size-based" {
		t.Fatalf("names = %s, %s", outs[0].Filter, outs[2].Filter)
	}
	// The size filter must dominate: fewer infections than no filter.
	if outs[2].Infections >= outs[0].Infections {
		t.Fatalf("size filter did not reduce infections: %d vs %d", outs[2].Infections, outs[0].Infections)
	}
}
