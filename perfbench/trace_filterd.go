package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"p2pmalware/internal/filtersvc"
	"p2pmalware/internal/obs"
)

// updateReps is how many in-process updates the traced run times.
const updateReps = 21

var sink int // keeps measured lookups from being optimized away

// runFilterdTraced is the traced run of filterd-mixed: a short mixed
// session against the daemon for the line-protocol and writer figures,
// then the in-process filtersvc calls on the same list and probes.
func runFilterdTraced(o *options, r *report) error {
	in, err := makeFilterdInputs(o, r)
	if err != nil {
		return err
	}
	d, _, err := spawnFilterd(o, in)
	r.op(err)
	if err != nil {
		return err
	}
	window := time.Duration(max(2, o.seconds/4)) * time.Second
	s, err := runSession(d, in, window)
	if err != nil {
		d.stop()
		return err
	}
	checkSession(r, d, s, d.version+uint64(s.updates))
	if err := d.stop(); err != nil {
		r.check(false, "filterd exit: %v", err)
	}
	reportSession(r, s)
	checkNS, err := filtersvcLayer(r, in)
	if err != nil {
		return err
	}
	r.add("filtersvc.line_overhead_us", "us", r.values["check_batch_p50_us"].Median-checkBatch*checkNS/1000)
	idleLayers(o, r, "netsim.", "p2p.", "gnutella.", "openft.", "core.", "scanner.", "dataset.", "obs.", "accounting.")
	return nil
}

// filtersvcLayer times the in-process filtersvc calls on the run's list
// and probes, and returns the measured Service.Check cost in ns.
func filtersvcLayer(r *report, in *filterdInputs) (float64, error) {
	var err error
	sizes := make([]int64, len(in.probes))
	dl := make([]bool, len(in.probes))
	lines := make([][]byte, len(in.probes))
	for i, p := range in.probes {
		lines[i] = bytes.TrimSuffix(p.line, []byte("\n"))
		if sizes[i], dl[i], err = filtersvc.ParseCheckLine(lines[i]); err != nil {
			return 0, fmt.Errorf("probe %q: %w", lines[i], err)
		}
	}
	svc := filtersvc.New(obs.NewRegistry())
	svc.Replace(in.list, 0)
	snap := svc.Current()
	n := len(sizes)
	r.add("filtersvc.blocks_ns", "ns", nsPerOp(n, func(i int) {
		if snap.Blocks(sizes[i], dl[i]) {
			sink++
		}
	}))
	checkNS := nsPerOp(n, func(i int) {
		if svc.Check(sizes[i], dl[i]) {
			sink++
		}
	})
	r.add("filtersvc.check_ns", "ns", checkNS)
	r.add("filtersvc.check_ns_procs1", "ns", checkPerCore(svc, sizes, dl, 1))
	r.add("filtersvc.check_ns_procsN", "ns", checkPerCore(svc, sizes, dl, runtime.NumCPU()))
	r.add("filtersvc.parse_ns", "ns", nsPerOp(n, func(i int) { filtersvc.ParseCheckLine(lines[i]) }))

	chunk := make([]int64, churnChunk)
	for i := range chunk {
		chunk[i] = churnBase + int64(i)
	}
	var build, handler []float64
	for k := 0; k < updateReps; k++ {
		start := time.Now()
		if k%2 == 0 {
			svc.Add(chunk...)
		} else {
			svc.Remove(chunk...)
		}
		build = append(build, ms(time.Since(start)))
	}
	h := svc.Handler()
	for k := 0; k < updateReps; k++ {
		op := "add"
		if k%2 == 1 {
			op = "remove"
		}
		body, _ := json.Marshal(map[string][]int64{op: chunk})
		req := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body))
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		handler = append(handler, ms(time.Since(start)))
		r.op(statusErr(w.Code))
	}
	r.add("filtersvc.update_build_ms", "ms", build...)
	r.add("filtersvc.update_handler_ms", "ms", handler...)
	return checkNS, nil
}

func statusErr(code int) error {
	if code != http.StatusOK {
		return fmt.Errorf("in-process /update answered %d", code)
	}
	return nil
}

// checkPerCore runs Service.Check from procs goroutines at
// GOMAXPROCS=procs and returns the CPU-time cost of one check: wall time
// times procs over the checks made.
func checkPerCore(svc *filtersvc.Service, sizes []int64, dl []bool, procs int) float64 {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	const passes = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			blocked := 0
			for p := 0; p < passes; p++ {
				for i := range sizes {
					if svc.Check(sizes[i], dl[i]) {
						blocked++
					}
				}
			}
			mu.Lock()
			sink += blocked
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) * float64(procs) / float64(procs*passes*len(sizes))
}
