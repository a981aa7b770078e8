// Package dataset defines the trace records the instrumented clients
// produce — one record per query response, annotated with download and
// scan outcomes — plus JSONL and CSV persistence. Every table and figure
// in the evaluation is computed from these records.
package dataset

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"p2pmalware/internal/obs"
)

// Network identifies which instrumented client produced a record.
type Network string

// The two instrumented networks.
const (
	LimeWire Network = "limewire"
	OpenFT   Network = "openft"
)

// ResponseRecord is one query response observed by an instrumented client.
type ResponseRecord struct {
	// Time is the (virtual) trace timestamp.
	Time time.Time `json:"time"`
	// Network is the network the response was observed on.
	Network Network `json:"network"`
	// Query is the search string that elicited the response.
	Query string `json:"query"`
	// QueryCategory is the workload category of the query.
	QueryCategory string `json:"query_category"`
	// Filename is the advertised filename.
	Filename string `json:"filename"`
	// Size is the advertised size in bytes.
	Size int64 `json:"size"`
	// SourceIP and SourcePort are the advertised transfer endpoint.
	SourceIP   string `json:"source_ip"`
	SourcePort uint16 `json:"source_port"`
	// SourceClass is the address class of SourceIP (public, private, ...).
	SourceClass string `json:"source_class"`
	// ServentID identifies the responding servent (Gnutella) or is empty.
	ServentID string `json:"servent_id,omitempty"`
	// ContentID is the network's content identity: a urn:sha1 for
	// Gnutella hits that carried one, a hex MD5 for OpenFT.
	ContentID string `json:"content_id,omitempty"`
	// Vendor is the responding servent's vendor code, when known.
	Vendor string `json:"vendor,omitempty"`
	// PushFlagged marks hits that require the push flow (firewalled
	// source).
	PushFlagged bool `json:"push_flagged,omitempty"`
	// Downloadable marks responses whose filename is an archive or
	// executable — the subset the study downloaded and scanned.
	Downloadable bool `json:"downloadable"`
	// Downloaded reports whether the client fetched the content.
	Downloaded bool `json:"downloaded"`
	// DownloadError records why a download failed ("" on success).
	DownloadError string `json:"download_error,omitempty"`
	// AltSource, when set, is the endpoint the content was actually
	// fetched from after the advertised source failed — an alternate
	// responder advertising the same content identity.
	AltSource string `json:"alt_source,omitempty"`
	// BodyHash is the hex MD5 of the downloaded bytes.
	BodyHash string `json:"body_hash,omitempty"`
	// BodySize is the true size of the downloaded bytes.
	BodySize int64 `json:"body_size,omitempty"`
	// Malware is the detected family name ("" = clean or not downloaded).
	Malware string `json:"malware,omitempty"`
}

// Malicious reports whether the record was labelled as malware.
func (r *ResponseRecord) Malicious() bool { return r.Malware != "" }

// Trace is an in-memory record collection with provenance metadata.
type Trace struct {
	// Records are the response records in arrival order.
	Records []ResponseRecord
	// QueriesSent counts queries issued per network.
	QueriesSent map[Network]int
	// Start and End bound the trace period.
	Start, End time.Time
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{QueriesSent: make(map[Network]int)}
}

// Add appends a record, extending the trace bounds.
func (t *Trace) Add(r ResponseRecord) {
	if t.Start.IsZero() || r.Time.Before(t.Start) {
		t.Start = r.Time
	}
	if r.Time.After(t.End) {
		t.End = r.Time
	}
	t.Records = append(t.Records, r)
}

// Merge appends every record and query count of other into t.
func (t *Trace) Merge(other *Trace) {
	t.Records = slices.Grow(t.Records, len(other.Records))
	for i := range other.Records {
		t.Add(other.Records[i])
	}
	for nw, n := range other.QueriesSent {
		t.QueriesSent[nw] += n
	}
}

// ByNetwork returns the records observed on one network.
func (t *Trace) ByNetwork(n Network) []ResponseRecord {
	var out []ResponseRecord
	for _, r := range t.Records {
		if r.Network == n {
			out = append(out, r)
		}
	}
	return out
}

// Days returns the trace duration in whole days (at least 1 when any
// records exist).
func (t *Trace) Days() int {
	if len(t.Records) == 0 {
		return 0
	}
	d := int(t.End.Sub(t.Start).Hours()/24) + 1
	return d
}

// WriteJSONL streams records as one JSON object per line, preceded by a
// header object carrying trace metadata.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := struct {
		Kind        string          `json:"kind"`
		QueriesSent map[Network]int `json:"queries_sent"`
		Start       time.Time       `json:"start"`
		End         time.Time       `json:"end"`
	}{"p2pmalware-trace-v1", t.QueriesSent, t.Start, t.End}
	if err := json.NewEncoder(bw).Encode(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	var line []byte
	for i := range t.Records {
		var err error
		if line, err = AppendRecord(line[:0], &t.Records[i]); err == nil {
			line = append(line, '\n')
			_, err = bw.Write(line)
		}
		if err != nil {
			return fmt.Errorf("dataset: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Errors AppendRecord returns for a Time that RFC 3339 cannot carry,
// where encoding/json's Time.MarshalJSON fails too.
var (
	errTimeYear = errors.New("dataset: record time year outside of range [0,9999]")
	errTimeZone = errors.New("dataset: record time zone hour outside of range [0,23]")
)

// AppendRecord appends r as one JSON object (no trailing newline) to dst,
// byte-identical to encoding/json's encoding of r: the struct tags' field
// order and omitempty rules, strings escaped by obs.AppendJSONString, and
// the time in its own location as RFC 3339 with nanoseconds. Where
// encoding/json fails — a time RFC 3339 cannot carry — it returns dst
// unchanged and an error. The golden-record, omitempty and time-error
// tests and FuzzAppendRecord hold the two encoders equal.
//
// lint:hotpath
func AppendRecord(dst []byte, r *ResponseRecord) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"time":"`...)
	t0 := len(dst)
	dst = r.Time.AppendFormat(dst, time.RFC3339Nano)
	if err := checkRFC3339(dst[t0:]); err != nil {
		return dst[:n0], err
	}
	dst = append(dst, `","network":`...)
	dst = obs.AppendJSONString(dst, string(r.Network))
	dst = append(dst, `,"query":`...)
	dst = obs.AppendJSONString(dst, r.Query)
	dst = append(dst, `,"query_category":`...)
	dst = obs.AppendJSONString(dst, r.QueryCategory)
	dst = append(dst, `,"filename":`...)
	dst = obs.AppendJSONString(dst, r.Filename)
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendInt(dst, r.Size, 10)
	dst = append(dst, `,"source_ip":`...)
	dst = obs.AppendJSONString(dst, r.SourceIP)
	dst = append(dst, `,"source_port":`...)
	dst = strconv.AppendUint(dst, uint64(r.SourcePort), 10)
	dst = append(dst, `,"source_class":`...)
	dst = obs.AppendJSONString(dst, r.SourceClass)
	dst = appendOmitEmpty(dst, `,"servent_id":`, r.ServentID)
	dst = appendOmitEmpty(dst, `,"content_id":`, r.ContentID)
	dst = appendOmitEmpty(dst, `,"vendor":`, r.Vendor)
	if r.PushFlagged {
		dst = append(dst, `,"push_flagged":true`...)
	}
	dst = append(dst, `,"downloadable":`...)
	dst = strconv.AppendBool(dst, r.Downloadable)
	dst = append(dst, `,"downloaded":`...)
	dst = strconv.AppendBool(dst, r.Downloaded)
	dst = appendOmitEmpty(dst, `,"download_error":`, r.DownloadError)
	dst = appendOmitEmpty(dst, `,"alt_source":`, r.AltSource)
	dst = appendOmitEmpty(dst, `,"body_hash":`, r.BodyHash)
	if r.BodySize != 0 {
		dst = append(dst, `,"body_size":`...)
		dst = strconv.AppendInt(dst, r.BodySize, 10)
	}
	dst = appendOmitEmpty(dst, `,"malware":`, r.Malware)
	return append(dst, '}'), nil
}

// appendOmitEmpty appends key and the escaped s unless s is empty.
//
// lint:hotpath
func appendOmitEmpty(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, key...)
	return obs.AppendJSONString(dst, s)
}

// checkRFC3339 applies the checks Time.MarshalJSON makes on the
// RFC3339Nano bytes b: a year exactly four digits wide, and a zone hour
// within [0,23].
func checkRFC3339(b []byte) error {
	if b[len("9999")] != '-' {
		return errTimeYear
	}
	if b[len(b)-1] != 'Z' {
		c := b[len(b)-len("Z07:00")]
		h := b[len(b)-len("07:00"):]
		if ('0' <= c && c <= '9') || 10*(h[0]-'0')+(h[1]-'0') >= 24 {
			return errTimeZone
		}
	}
	return nil
}

// ReadJSONL loads a trace written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Trace, error) {
	t := NewTrace()
	dec := json.NewDecoder(bufio.NewReader(r))
	var header struct {
		Kind        string          `json:"kind"`
		QueriesSent map[Network]int `json:"queries_sent"`
		Start       time.Time       `json:"start"`
		End         time.Time       `json:"end"`
	}
	if err := dec.Decode(&header); err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if header.Kind != "p2pmalware-trace-v1" {
		return nil, fmt.Errorf("dataset: unrecognized trace kind %q", header.Kind)
	}
	if header.QueriesSent != nil {
		t.QueriesSent = header.QueriesSent
	}
	for {
		var rec ResponseRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("dataset: read record %d: %w", len(t.Records), err)
		}
		t.Add(rec)
	}
	t.Start, t.End = header.Start, header.End
	if t.Start.IsZero() && len(t.Records) > 0 {
		t.Start = t.Records[0].Time
		t.End = t.Records[len(t.Records)-1].Time
	}
	return t, nil
}

// csvHeader is the column order for CSV export.
var csvHeader = []string{
	"time", "network", "query", "query_category", "filename", "size",
	"source_ip", "source_port", "source_class", "servent_id", "content_id",
	"vendor", "push_flagged", "downloadable", "downloaded",
	"download_error", "alt_source", "body_hash", "body_size", "malware",
}

// WriteCSV exports the records as CSV with a header row.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("dataset: csv header: %w", err)
	}
	for i := range t.Records {
		r := &t.Records[i]
		row := []string{
			r.Time.UTC().Format(time.RFC3339),
			string(r.Network), r.Query, r.QueryCategory, r.Filename,
			strconv.FormatInt(r.Size, 10),
			r.SourceIP, strconv.Itoa(int(r.SourcePort)), r.SourceClass,
			r.ServentID, r.ContentID, r.Vendor,
			strconv.FormatBool(r.PushFlagged),
			strconv.FormatBool(r.Downloadable),
			strconv.FormatBool(r.Downloaded),
			r.DownloadError, r.AltSource, r.BodyHash,
			strconv.FormatInt(r.BodySize, 10), r.Malware,
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: csv record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
