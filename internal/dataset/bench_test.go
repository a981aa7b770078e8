package dataset

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// benchTrace is a study-shaped trace: n records cycling through the
// sample's malicious, clean-downloadable and media shapes.
func benchTrace(n int) *Trace {
	sample := sampleTrace()
	tr := NewTrace()
	tr.QueriesSent = sample.QueriesSent
	for i := 0; i < n; i++ {
		r := sample.Records[i%len(sample.Records)]
		r.Time = r.Time.Add(time.Duration(i) * time.Second)
		r.Filename = fmt.Sprintf("file %d %s", i, r.Filename)
		r.SourcePort += uint16(i)
		tr.Add(r)
	}
	return tr
}

// BenchmarkWriteJSONL times the serial trace write after the last query.
func BenchmarkWriteJSONL(b *testing.B) {
	tr := benchTrace(10000)
	var out bytes.Buffer
	if err := tr.WriteJSONL(&out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
