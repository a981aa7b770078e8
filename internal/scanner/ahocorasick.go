package scanner

import "bytes"

// acMatcher is a byte-level Aho–Corasick automaton over the engine's
// pattern signatures, compiled once in New. A single left-to-right pass
// over the input reports every pattern that occurs as a substring
// (bytes.Contains semantics), replacing the per-signature scan loop whose
// cost grew linearly with the signature count.
//
// The automaton is stored as a dense transition table: goto and failure
// edges are collapsed during construction, so the scan loop is one table
// load per input byte with no failure chasing. States are immutable after
// construction and safe for concurrent use.
//
// While the automaton sits at the root, every byte that cannot start a
// pattern leaves it there. When exactly one byte can leave the root — the
// engine's patterns all begin with the same marker — match jumps to that
// byte's next occurrence with bytes.IndexByte instead of stepping through
// the bytes in between one table load at a time.
type acMatcher struct {
	// next[s][c] is the state reached from s on byte c, failures already
	// applied.
	next [][256]int32
	// out[s] lists the pattern indices whose match ends in state s,
	// including patterns inherited through failure links.
	out [][]int32
	// numPatterns is the total pattern count, sizing per-scan seen sets.
	numPatterns int
	// rootByte is the only byte with an edge out of the root state, or -1
	// when several bytes have one and the root skip is off.
	rootByte int
}

// newACMatcher compiles the automaton from the pattern byte strings.
// Patterns must be non-empty; the engine's signature validation enforces a
// 4-byte minimum before this runs.
func newACMatcher(patterns [][]byte) *acMatcher {
	m := &acMatcher{numPatterns: len(patterns)}
	// Phase 1: trie. child[s][c] is -1 for "no edge" until phase 2
	// rewrites the table into the dense goto/fail automaton.
	m.next = append(m.next, emptyRow())
	m.out = append(m.out, nil)
	for pi, p := range patterns {
		s := int32(0)
		for _, c := range p {
			if m.next[s][c] < 0 {
				m.next = append(m.next, emptyRow())
				m.out = append(m.out, nil)
				m.next[s][c] = int32(len(m.next) - 1)
			}
			s = m.next[s][c]
		}
		m.out[s] = append(m.out[s], int32(pi))
	}
	// Phase 2: breadth-first failure links; fold them into the transition
	// table and merge output sets so matching never walks failures.
	fail := make([]int32, len(m.next))
	queue := make([]int32, 0, len(m.next))
	for c := 0; c < 256; c++ {
		s := m.next[0][c]
		if s < 0 {
			m.next[0][c] = 0
			continue
		}
		fail[s] = 0
		queue = append(queue, s)
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		f := fail[s]
		if len(m.out[f]) > 0 {
			m.out[s] = append(m.out[s], m.out[f]...)
		}
		for c := 0; c < 256; c++ {
			t := m.next[s][c]
			if t < 0 {
				m.next[s][c] = m.next[f][c]
				continue
			}
			fail[t] = m.next[f][c]
			queue = append(queue, t)
		}
	}
	m.rootByte = -1
	for c := 0; c < 256; c++ {
		if m.next[0][c] == 0 {
			continue
		}
		if m.rootByte >= 0 {
			m.rootByte = -1
			break
		}
		m.rootByte = c
	}
	return m
}

func emptyRow() [256]int32 {
	var row [256]int32
	for i := range row {
		row[i] = -1
	}
	return row
}

// match scans data once and calls found for each distinct pattern index
// present, at most once per pattern. It returns early once every pattern
// has been seen.
//
// lint:hotpath
func (m *acMatcher) match(data []byte, found func(pattern int32)) {
	if m.numPatterns == 0 {
		return
	}
	var seen []bool
	remaining := m.numPatterns
	s := int32(0)
	for i := 0; i < len(data); i++ {
		if s == 0 && m.rootByte >= 0 {
			// Every byte before the next rootByte maps the root to itself
			// and the root has no outputs, so skipping them is exact.
			j := bytes.IndexByte(data[i:], byte(m.rootByte))
			if j < 0 {
				return
			}
			i += j
		}
		s = m.next[s][data[i]]
		if hits := m.out[s]; len(hits) > 0 {
			if seen == nil {
				seen = make([]bool, m.numPatterns)
			}
			for _, pi := range hits {
				if seen[pi] {
					continue
				}
				seen[pi] = true
				remaining--
				found(pi)
			}
			if remaining == 0 {
				return
			}
		}
	}
}
