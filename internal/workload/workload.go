// Package workload generates the search-query stream the instrumented
// clients issue: a fixed corpus of popular 2006-era query strings, grouped
// into categories, drawn with Zipf-distributed popularity. The study's
// per-category malware rates (which kinds of queries attract malware) come
// straight out of this structure.
package workload

import (
	"fmt"

	"p2pmalware/internal/stats"
)

// Category groups query terms by content type.
type Category string

// Query categories.
const (
	Music    Category = "music"
	Movies   Category = "movies"
	Software Category = "software"
	Games    Category = "games"
	Misc     Category = "misc"
)

// Term is one query string with its category.
type Term struct {
	Text     string
	Category Category
}

// DefaultCorpus returns the query corpus, ordered by intended popularity
// rank (rank 0 = most popular). The strings are representative of the
// popular searches the study's instrumented clients issued.
func DefaultCorpus() []Term {
	return []Term{
		// Music (most popular category on 2006 file-sharing networks).
		{"madonna hung up", Music},
		{"britney spears", Music},
		{"green day holiday", Music},
		{"coldplay speed of sound", Music},
		{"50 cent candy shop", Music},
		{"gorillaz feel good", Music},
		{"eminem mockingbird", Music},
		{"kanye west gold digger", Music},
		{"shakira hips", Music},
		{"black eyed peas", Music},
		{"james blunt beautiful", Music},
		{"pussycat dolls", Music},
		{"mariah carey", Music},
		{"fall out boy", Music},
		{"weezer beverly hills", Music},
		// Movies.
		{"star wars episode", Movies},
		{"harry potter goblet", Movies},
		{"king kong", Movies},
		{"narnia", Movies},
		{"batman begins", Movies},
		{"war of the worlds", Movies},
		{"madagascar", Movies},
		{"wedding crashers", Movies},
		{"charlie chocolate factory", Movies},
		{"mr mrs smith", Movies},
		// Software (the downloadable-heavy category).
		{"photoshop", Software},
		{"windows xp", Software},
		{"office 2003", Software},
		{"winzip", Software},
		{"nero burning", Software},
		{"norton antivirus", Software},
		{"acrobat reader", Software},
		{"divx codec", Software},
		{"winamp pro", Software},
		{"msn messenger", Software},
		// Games.
		{"grand theft auto", Games},
		{"half life 2", Games},
		{"sims 2", Games},
		{"world of warcraft", Games},
		{"need for speed", Games},
		{"age of empires", Games},
		{"counter strike", Games},
		{"doom 3", Games},
		// Misc.
		{"screensaver", Misc},
		{"wallpaper pack", Misc},
		{"ebook collection", Misc},
		{"fonts collection", Misc},
		{"ringtones", Misc},
		{"paris hilton", Misc},
		{"family guy", Misc},
	}
}

// Skew is the Zipf exponent of query popularity. The measurement driver
// draws its queries with it, and both simulated universes calibrate their
// shared files to it, so what hosts share matches what clients ask for.
const Skew = 1.0

// Generator draws terms from a corpus with Zipf-distributed popularity.
type Generator struct {
	corpus []Term
	zipf   *stats.Zipf
}

// NewGenerator builds a generator over corpus with Zipf exponent s
// (s ≈ 0.8–1.1 matches measured P2P query popularity skew; the study
// uses Skew).
func NewGenerator(rng *stats.RNG, corpus []Term, s float64) (*Generator, error) {
	if len(corpus) == 0 {
		return nil, fmt.Errorf("workload: empty corpus")
	}
	return &Generator{corpus: corpus, zipf: stats.NewZipf(rng, s, len(corpus))}, nil
}

// Next draws the next query term.
func (g *Generator) Next() Term {
	return g.corpus[g.zipf.Next()]
}

// Corpus returns the generator's corpus.
func (g *Generator) Corpus() []Term { return g.corpus }

// TermProbability returns the probability of the term at the given corpus
// rank, useful for calibrating populations.
func (g *Generator) TermProbability(rank int) float64 { return g.zipf.PMF(rank) }

// Categories returns the distinct categories in corpus order.
func Categories(corpus []Term) []Category {
	seen := make(map[Category]bool)
	var out []Category
	for _, t := range corpus {
		if !seen[t.Category] {
			seen[t.Category] = true
			out = append(out, t.Category)
		}
	}
	return out
}
