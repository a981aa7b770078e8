package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/p2p"
	"p2pmalware/internal/stats"
	"p2pmalware/internal/workload"
)

var (
	errRetry = errors.New("fake: connection reset")
	errFatal = errors.New("fake: not found")
)

// fakeHit is one scripted response of fakeNet.
type fakeHit struct {
	ip   string
	port uint16
	key  string // content identity
	push bool
	err  error // what fetching it returns
}

func (h fakeHit) src() string { return fmt.Sprintf("%s:%d", h.ip, h.port) }

// fakeNet is an adapter over no network at all: floods answer at once
// with hits, fetches return each hit's scripted outcome, and churn
// returns churnErr.
type fakeNet struct {
	mem      *p2p.Mem
	sink     *floodSink[fakeHit]
	hits     []fakeHit
	sendErr  error
	churnErr error
	floods   byte
	fetched  []string // sources fetch was called for, in order
}

func (f *fakeNet) flood(term string) (p2p.FloodID, func() error) {
	f.floods++
	id := p2p.FloodID{f.floods}
	return id, func() error {
		f.sink.add(id, f.hits...)
		return f.sendErr
	}
}

func (f *fakeNet) response(h fakeHit) dataset.ResponseRecord {
	return dataset.ResponseRecord{Filename: "setup.exe", SourceIP: h.ip, SourcePort: h.port, PushFlagged: h.push}
}

func (f *fakeNet) less(a, b fakeHit) bool { return a.src() < b.src() }

func (f *fakeNet) altKey(h fakeHit) string {
	if h.push {
		return ""
	}
	return h.key
}

func (f *fakeNet) cacheKey(h fakeHit) string { return h.src() + "/" + h.key }

func (f *fakeNet) fetch(h fakeHit, addr, key string, fx *netFaults) ([]byte, []p2p.Attempt, error) {
	f.fetched = append(f.fetched, addr)
	return []byte("MZ" + addr), []p2p.Attempt{{Fate: p2p.FateOf(h.err)}}, h.err
}

func (f *fakeNet) retryable(err error) bool { return !errors.Is(err, errFatal) }

func (f *fakeNet) churn(frac float64) (int, error) { return 1, f.churnErr }

// fakeStudy is a study whose configuration runNetwork reads; its own
// network is never built.
func fakeStudy(t *testing.T) *Study {
	t.Helper()
	st, err := NewStudy(StudyConfig{Seed: 5, Days: 2, QueriesPerDay: 1, Workers: 1, LimeWire: &netsim.LimeWireConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAlternateSources pins the runner's alternate-source loop through a
// fake adapter: which candidates it tries, in what order, when it stops,
// and which cache entries the fetch's trail lists.
func TestAlternateSources(t *testing.T) {
	a := fakeHit{ip: "10.0.0.1", port: 1, key: "k", err: errRetry}
	cases := []struct {
		name     string
		faults   bool
		hits     []fakeHit // sorted; the fetch is for hits[0]
		prefetch []int     // hits an earlier record already fetched
		open     string    // a host whose circuit is open
		wantAlt  string
		wantErr  error
		trail    []string // sources of the trail's entries
		fetched  []string // sources the adapter fetched for this record
	}{{
		name:   "skips the failed source, push hits and other content; first success wins",
		faults: true,
		hits: []fakeHit{a,
			{ip: "10.0.0.1", port: 1, key: "k"},                // same source
			{ip: "10.0.0.2", port: 2, key: "k", push: true},    // push
			{ip: "10.0.0.3", port: 3, key: "other"},            // other content
			{ip: "10.0.0.4", port: 4, key: "k", err: errRetry}, // fails
			{ip: "10.0.0.5", port: 5, key: "k"},                // succeeds
			{ip: "10.0.0.6", port: 6, key: "k"}},               // never tried
		wantAlt: "10.0.0.5:5",
		trail:   []string{"10.0.0.1:1", "10.0.0.4:4", "10.0.0.5:5"},
		fetched: []string{"10.0.0.1:1", "10.0.0.4:4", "10.0.0.5:5"},
	}, {
		name:     "the trail lists cached entries too",
		faults:   true,
		hits:     []fakeHit{a, {ip: "10.0.0.4", port: 4, key: "k", err: errRetry}, {ip: "10.0.0.5", port: 5, key: "k"}},
		prefetch: []int{1},
		wantAlt:  "10.0.0.5:5",
		trail:    []string{"10.0.0.1:1", "10.0.0.4:4", "10.0.0.5:5"},
		fetched:  []string{"10.0.0.1:1", "10.0.0.5:5"},
	}, {
		name:    "every alternate fails: the advertised source's error stands",
		faults:  true,
		hits:    []fakeHit{a, {ip: "10.0.0.4", port: 4, key: "k", err: errRetry}},
		wantErr: errRetry,
		trail:   []string{"10.0.0.1:1", "10.0.0.4:4"},
		fetched: []string{"10.0.0.1:1", "10.0.0.4:4"},
	}, {
		name:    "clean mode tries no alternates",
		hits:    []fakeHit{a, {ip: "10.0.0.5", port: 5, key: "k"}},
		wantErr: errRetry,
		trail:   []string{"10.0.0.1:1"},
		fetched: []string{"10.0.0.1:1"},
	}, {
		name:    "a non-retryable error tries no alternates",
		faults:  true,
		hits:    []fakeHit{{ip: "10.0.0.1", port: 1, key: "k", err: errFatal}, {ip: "10.0.0.5", port: 5, key: "k"}},
		wantErr: errFatal,
		trail:   []string{"10.0.0.1:1"},
		fetched: []string{"10.0.0.1:1"},
	}, {
		name:   "a push hit looks for no alternate",
		faults: true,
		hits: []fakeHit{{ip: "10.0.0.1", port: 1, key: "k", push: true, err: errRetry},
			{ip: "10.0.0.4", port: 4, key: "k", push: true}, {ip: "10.0.0.5", port: 5, key: "k"}},
		wantErr: errRetry,
		trail:   []string{"10.0.0.1:1"},
		fetched: []string{"10.0.0.1:1"},
	}, {
		name:    "an open circuit fails a direct fetch fast and sends it to an alternate",
		faults:  true,
		hits:    []fakeHit{{ip: "10.0.0.1", port: 1, key: "k"}, {ip: "10.0.0.5", port: 5, key: "k"}},
		open:    "10.0.0.1",
		wantAlt: "10.0.0.5:5",
		trail:   []string{"10.0.0.1:1", "10.0.0.5:5"},
		fetched: []string{"10.0.0.5:5"},
	}, {
		name:    "an open circuit does not stop a push fetch",
		faults:  true,
		hits:    []fakeHit{{ip: "10.0.0.1", port: 1, key: "k", push: true}},
		open:    "10.0.0.1",
		trail:   []string{"10.0.0.1:1"},
		fetched: []string{"10.0.0.1:1"},
	}, {
		name:    "a success needs no alternate",
		faults:  true,
		hits:    []fakeHit{{ip: "10.0.0.1", port: 1, key: "k"}, {ip: "10.0.0.5", port: 5, key: "k"}},
		trail:   []string{"10.0.0.1:1"},
		fetched: []string{"10.0.0.1:1"},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fake := &fakeNet{}
			r := &runner[fakeHit]{s: fakeStudy(t), a: fake, cache: newFetchCache()}
			if c.faults {
				r.fx = &netFaults{br: newBreaker()}
				for i := 0; c.open != "" && i < r.fx.br.threshold; i++ {
					r.fx.br.record(c.open, false)
				}
				r.fx.br.advance()
			}
			recs := make([]dataset.ResponseRecord, len(c.hits))
			for k, h := range c.hits {
				recs[k] = fake.response(h)
			}
			for _, k := range c.prefetch {
				r.fetchOnce(c.hits[k], &recs[k], nil)
			}
			fake.fetched = nil
			res, trail := r.fetch(c.hits, recs, 0, nil)
			if !errors.Is(res.err, c.wantErr) {
				t.Errorf("err = %v, want %v", res.err, c.wantErr)
			}
			if res.alt != c.wantAlt {
				t.Errorf("alt = %q, want %q", res.alt, c.wantAlt)
			}
			var srcs []string
			for _, e := range trail {
				srcs = append(srcs, e.src)
			}
			if !reflect.DeepEqual(srcs, c.trail) {
				t.Errorf("trail = %v, want %v", srcs, c.trail)
			}
			if !reflect.DeepEqual(fake.fetched, c.fetched) {
				t.Errorf("fetched = %v, want %v", fake.fetched, c.fetched)
			}
		})
	}
}

// TestRunnerErrorText pins the runner's error messages: one operation
// prefix, the same for every network, which Run then wraps once with
// "core: <network> study: ".
func TestRunnerErrorText(t *testing.T) {
	boom := errors.New("boom")
	gen, err := workload.NewGenerator(stats.NewRNG(5, 1), workload.DefaultCorpus(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		fake fakeNet
		want string
	}{
		{"churn", fakeNet{churnErr: boom}, "churn on day 1: boom"},
		{"flood", fakeNet{sendErr: boom}, fmt.Sprintf("query 0 %q: boom", gen.Next().Text)},
	} {
		t.Run(c.name, func(t *testing.T) {
			fake := c.fake
			fake.mem, fake.sink = p2p.NewMem(), &floodSink[fakeHit]{}
			fake.hits = []fakeHit{{ip: "10.0.0.1", port: 1, key: "k"}}
			st := fakeStudy(t)
			err := runNetwork[fakeHit](st, dataset.NewTrace(), netInfo{
				name: "fake", network: dataset.LimeWire, stream: 1, mem: fake.mem, churned: "hosts", churn: 0.5,
			}, fake.sink, &fake)
			if !errors.Is(err, boom) || err.Error() != c.want {
				t.Fatalf("err = %v, want %q wrapping boom", err, c.want)
			}
		})
	}
}
