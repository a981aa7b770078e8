package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// rejectFilter runs the filter subcommand on a trace path that does not
// exist, so only the input check, which must come first, can name want.
func rejectFilter(t *testing.T, want string, args ...string) {
	t.Helper()
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	err := traceReader(parseFilter)(append([]string{"-trace", missing}, args...))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("filter %v: err = %v, want a rejection naming %q", args, err, want)
	}
}

func TestFilterRejectsTrainFracOutsideOpenUnitInterval(t *testing.T) {
	for _, v := range []string{"0", "1", "1.5", "-0.25", "NaN"} {
		rejectFilter(t, "-train-frac", "-train-frac", v)
	}
}

func TestFilterRejectsNegativeK(t *testing.T) {
	rejectFilter(t, "-k -5", "-k", "-5")
	if _, _, err := parseFilter([]string{"-k", "0"}); err != nil {
		t.Errorf("-k 0 (all sizes) rejected: %v", err)
	}
}

func TestFilterRejectsNegativeSweepValue(t *testing.T) {
	rejectFilter(t, `sweep value "-3"`, "-sweep=-3,0")
	if _, _, err := parseFilter([]string{"-sweep", "0,5"}); err != nil {
		t.Errorf("-sweep 0,5 (0 = all sizes) rejected: %v", err)
	}
}
