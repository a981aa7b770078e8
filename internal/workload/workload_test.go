package workload

import (
	"testing"

	"p2pmalware/internal/stats"
)

func TestDefaultCorpusSanity(t *testing.T) {
	corpus := DefaultCorpus()
	if len(corpus) < 40 {
		t.Fatalf("corpus too small: %d", len(corpus))
	}
	seen := make(map[string]bool)
	cats := make(map[Category]bool)
	for _, term := range corpus {
		if term.Text == "" || term.Category == "" {
			t.Fatalf("bad term %+v", term)
		}
		if seen[term.Text] {
			t.Fatalf("duplicate term %q", term.Text)
		}
		seen[term.Text] = true
		cats[term.Category] = true
	}
	if len(cats) != 5 {
		t.Fatalf("categories = %v", cats)
	}
}

func TestGeneratorSkew(t *testing.T) {
	rng := stats.NewRNG(42, 42)
	g, err := NewGenerator(rng, DefaultCorpus(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Text]++
	}
	corpus := g.Corpus()
	if counts[corpus[0].Text] <= counts[corpus[len(corpus)-1].Text] {
		t.Fatal("no popularity skew")
	}
	if counts[corpus[0].Text] < n/20 {
		t.Fatalf("top term drawn only %d times", counts[corpus[0].Text])
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	mk := func() []string {
		g, _ := NewGenerator(stats.NewRNG(7, 7), DefaultCorpus(), 0.9)
		out := make([]string, 100)
		for i := range out {
			out[i] = g.Next().Text
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic for same seed")
		}
	}
}

func TestTermProbabilitySums(t *testing.T) {
	g, _ := NewGenerator(stats.NewRNG(1, 1), DefaultCorpus(), 1.0)
	var sum float64
	for i := range g.Corpus() {
		sum += g.TermProbability(i)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestEmptyCorpusRejected(t *testing.T) {
	if _, err := NewGenerator(stats.NewRNG(1, 1), nil, 1.0); err == nil {
		t.Fatal("empty corpus accepted")
	}
}
