package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"p2pmalware/internal/dataset"
)

// filters is the record predicate assembled from the flag set.
type filters struct {
	network      string
	query        string
	family       string // "any" matches every malicious record
	sourceClass  string
	sourceIP     string
	downloadable bool
	failed       bool
}

func (f *filters) match(r *dataset.ResponseRecord) bool {
	if f.network != "" && string(r.Network) != f.network {
		return false
	}
	if f.query != "" && !strings.Contains(r.Query, f.query) {
		return false
	}
	switch {
	case f.family == "":
	case f.family == "any":
		if !r.Malicious() {
			return false
		}
	default:
		if r.Malware != f.family {
			return false
		}
	}
	if f.sourceClass != "" && r.SourceClass != f.sourceClass {
		return false
	}
	if f.sourceIP != "" && r.SourceIP != f.sourceIP {
		return false
	}
	if f.downloadable && !r.Downloadable {
		return false
	}
	if f.failed && (r.DownloadError == "" || r.Downloaded) {
		return false
	}
	return true
}

// recordLabel condenses a record's outcome into the one-word trailer.
func recordLabel(r *dataset.ResponseRecord) string {
	switch {
	case r.Malicious():
		return "MALWARE:" + r.Malware
	case !r.Downloaded && r.Downloadable:
		return "failed:" + r.DownloadError
	case !r.Downloadable:
		return "media"
	default:
		return "clean"
	}
}

// printRecords prints matching records to w, capped at limit (0 = no cap,
// print every match), or only the match count when countOnly is set.
// Returns (matched, printed) so tests can pin the limit semantics.
func printRecords(w io.Writer, tr *dataset.Trace, f *filters, limit int, countOnly bool) (matched, printed int) {
	for i := range tr.Records {
		r := &tr.Records[i]
		if !f.match(r) {
			continue
		}
		matched++
		if countOnly || (limit > 0 && printed >= limit) {
			continue
		}
		fmt.Fprintf(w, "%s  %-8s  %-28q  %-40q %9d  %s:%d (%s)  %s\n",
			r.Time.Format("2006-01-02 15:04"), r.Network, r.Query, r.Filename,
			r.Size, r.SourceIP, r.SourcePort, r.SourceClass, recordLabel(r))
		printed++
	}
	if countOnly {
		fmt.Fprintln(w, matched)
		return matched, printed
	}
	if matched > printed {
		fmt.Fprintf(w, "... %d more matching records (raise -limit to see them)\n", matched-printed)
	}
	if matched == 0 {
		fmt.Fprintln(w, "no matching records")
	}
	return matched, printed
}

// parseRecords reads the records subcommand's flags.
func parseRecords(args []string) (string, traceWriter, error) {
	var f filters
	fs := flag.NewFlagSet("p2panalyze records", flag.ExitOnError)
	tracePath := fs.String("trace", "trace.jsonl", "trace file written by p2pstudy")
	limit := fs.Int("limit", 20, "maximum records to print (0 = all)")
	countOnly := fs.Bool("count", false, "print only the matching record count")
	fs.StringVar(&f.network, "network", "", "filter: network (limewire or openft)")
	fs.StringVar(&f.query, "query", "", "filter: substring of the query")
	fs.StringVar(&f.family, "malware", "", "filter: malware family (\"any\" = all malicious)")
	fs.StringVar(&f.sourceClass, "source-class", "", "filter: source address class")
	fs.StringVar(&f.sourceIP, "source-ip", "", "filter: exact source IP")
	fs.BoolVar(&f.downloadable, "downloadable", false, "filter: only archive/executable responses")
	fs.BoolVar(&f.failed, "failed", false, "filter: only failed downloads")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse

	return *tracePath, func(w io.Writer, tr *dataset.Trace) error {
		printRecords(w, tr, &f, *limit, *countOnly)
		return nil
	}, nil
}
