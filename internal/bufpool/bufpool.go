// Package bufpool recycles the short-lived buffers of the two networks'
// wire and transfer paths: bufio readers wrapped around connections,
// staging buffers for bodies whose length the peer did not advertise, and
// size-classed slabs (slab.go) for file bodies. A study run serves and
// downloads tens of thousands of bodies of up to a few hundred KiB;
// without pooling each one is a fresh zeroed allocation, and the
// collections they cause cost the pipelined engine a tenth of its CPU. A
// pooled buffer has one user at a time, which hands it back when done; a
// buffer that is never handed back is simply left to the garbage
// collector.
package bufpool

import (
	"bufio"
	"bytes"
	"io"
	"sync"

	"p2pmalware/internal/obs"
)

// maxPooledBuffer caps the capacity a staging buffer may retain in the
// pool, so one oversized body does not pin its worth of memory forever.
const maxPooledBuffer = 4 << 20

var (
	bufNew    = obs.C("p2p_bufpool_new_total", "kind", "buffer")
	readerNew = obs.C("p2p_bufpool_new_total", "kind", "reader")

	buffers = sync.Pool{New: func() any {
		bufNew.Inc()
		return new(bytes.Buffer)
	}}
	readers = sync.Pool{New: func() any {
		readerNew.Inc()
		return bufio.NewReader(nil)
	}}
)

// GetBuffer returns an empty staging buffer. Its contents must be copied
// out before PutBuffer; the backing array is recycled.
func GetBuffer() *bytes.Buffer {
	b := buffers.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a staging buffer to the pool. Oversized buffers are
// dropped instead of retained.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		buffers.Put(b)
	}
}

// GetReader returns a pooled bufio.Reader reading from r. Callers must not
// retain the reader past PutReader.
func GetReader(r io.Reader) *bufio.Reader {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader detaches the reader from its source and returns it to the
// pool.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}
