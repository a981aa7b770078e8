package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"p2pmalware/internal/simclock"
)

// attrKind discriminates the concrete value stored in an Attr.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one ordered key/value pair on an event. Keys must not collide
// with the reserved event fields ("t", "scope", "seq", "event").
//
// Attr is a small concrete value, not an interface box: constructing one
// with String/Int/Float/Bool stores the payload inline (floats as their
// IEEE-754 bits), so building attributes on the trace hot path performs no
// heap allocation. The zero Attr encodes as an empty string.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  uint64
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: attrString, str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, kind: attrInt, num: uint64(v)} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, kind: attrFloat, num: math.Float64bits(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	var n uint64
	if v {
		n = 1
	}
	return Attr{Key: k, kind: attrBool, num: n}
}

// Event is one structured trace event. Time comes from the tracer's
// (virtual) trace clock, so same-seed simulation runs produce identical
// event streams; Seq orders events emitted at the same virtual instant
// within one tracer.
type Event struct {
	Time  time.Time
	Scope string
	Seq   uint64
	Name  string
	Attrs []Attr
}

// Tracer records structured events stamped with virtual trace time. A nil
// tracer is valid and drops every event, so instrumentation can emit
// unconditionally. Tracer is safe for concurrent use.
//
// Tracer, Event, Attr, AppendEvent and WriteEventsJSONL serve the
// benchmark's replay (perfbench/), which emits and encodes an event stream
// with them; the study engine writes records and spans instead.
type Tracer struct {
	clock simclock.Clock
	scope string

	mu     sync.Mutex
	seq    uint64  // guarded by mu
	events []Event // guarded by mu
	// arena is the shared attribute backing store: EmitAt copies each
	// event's attrs to the arena tail instead of retaining the caller's
	// variadic slice, so the slice never escapes and Emit stays
	// allocation-free in steady state. Events hold capacity-capped
	// three-index slices into the arena. The arena grows in fixed-size
	// chunks rather than by doubling: a full chunk is simply abandoned to
	// the events that point into it (it stays valid forever) and a fresh
	// one started, so no emit ever pays an O(arena) copy. Guarded by mu.
	arena []Attr
}

// arenaChunkAttrs is the attr arena chunk size. Large enough that chunk
// turnover is negligible (one small allocation per ~8k attrs), small enough
// that an abandoned chunk tail wastes almost nothing.
const arenaChunkAttrs = 8192

// NewTracer returns a tracer reading timestamps from clock (nil means the
// real clock) and stamping every event with scope (e.g. the network name).
func NewTracer(clock simclock.Clock, scope string) *Tracer {
	return &Tracer{clock: simclock.OrReal(clock), scope: scope}
}

// Emit records one event at the tracer clock's current time.
//
// lint:hotpath
func (t *Tracer) Emit(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.EmitAt(t.clock.Now(), name, attrs...)
}

// reservedAttrKey reports whether k collides with one of the fixed event
// fields AppendEvent emits first. An attribute reusing such a key would
// produce a JSON object with a duplicate member whose winning value
// depends on the consumer, so Emit rejects it outright.
func reservedAttrKey(k string) bool {
	switch k {
	case "t", "scope", "seq", "event":
		return true
	}
	return false
}

// panicReservedKey lives off the hot path so EmitAt itself stays free of
// fmt boxing under the hotpath allocation contract.
func panicReservedKey(name, key string) {
	panic(fmt.Sprintf("obs: event %q uses reserved attribute key %q", name, key))
}

// EmitAt records one event at an explicit trace timestamp, for callers
// that stamp deferred work with the virtual instant it belongs to after
// the clock has already advanced. Seq still reflects emission order within
// the tracer, so callers that need a deterministic stream must emit in the
// intended stream order.
//
// The attrs are copied into the tracer's arena: callers keep ownership of
// the slice they passed and may reuse it immediately.
//
// Attribute keys colliding with the reserved event fields ("t", "scope",
// "seq", "event") panic: like Registry label misuse, a reserved-key
// collision is a programming error at the instrumentation site, and the
// JSONL stream must stay unambiguous.
//
// lint:hotpath
func (t *Tracer) EmitAt(at time.Time, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	for i := range attrs {
		if reservedAttrKey(attrs[i].Key) {
			panicReservedKey(name, attrs[i].Key)
		}
	}
	t.mu.Lock()
	t.seq++
	var as []Attr
	if len(attrs) > 0 {
		if len(t.arena)+len(attrs) > cap(t.arena) {
			size := arenaChunkAttrs
			if len(attrs) > size {
				size = len(attrs)
			}
			t.arena = make([]Attr, 0, size)
		}
		n := len(t.arena)
		t.arena = append(t.arena, attrs...)
		// Cap the slice at its own end so a consumer appending to an
		// event's Attrs cannot overwrite a later event's attributes.
		as = t.arena[n:len(t.arena):len(t.arena)]
	}
	t.events = append(t.events, Event{Time: at, Scope: t.scope, Seq: t.seq, Name: name, Attrs: as})
	t.mu.Unlock()
}

// Events returns a copy of everything emitted so far, in emission order.
// The events' Attrs share the tracer's append-only arena; they are stable
// but must not be mutated.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of events emitted so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// AppendEvent renders one event as a single JSON line (without trailing
// newline) appended to dst. Fields appear in a fixed order — reserved
// fields first, then attributes in emission order — so the encoding is
// byte-deterministic. Every attribute kind renders through a typed
// append; nothing on this path boxes into an interface.
//
// lint:hotpath
func AppendEvent(dst []byte, e Event) []byte {
	dst = append(dst, `{"t":"`...)
	dst = e.Time.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","scope":`...)
	dst = AppendJSONString(dst, e.Scope)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"event":`...)
	dst = AppendJSONString(dst, e.Name)
	for i := range e.Attrs {
		a := &e.Attrs[i]
		dst = append(dst, ',')
		dst = AppendJSONString(dst, a.Key)
		dst = append(dst, ':')
		switch a.kind {
		case attrString:
			dst = AppendJSONString(dst, a.str)
		case attrInt:
			dst = strconv.AppendInt(dst, int64(a.num), 10)
		case attrFloat:
			dst = strconv.AppendFloat(dst, math.Float64frombits(a.num), 'g', -1, 64)
		case attrBool:
			dst = strconv.AppendBool(dst, a.num != 0)
		}
	}
	dst = append(dst, '}')
	return dst
}

// hexDigits also serves appendSpanID in span.go.
const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes AppendJSONString copies through verbatim,
// mirroring encoding/json's HTML-escaping safe set: control bytes, the
// quote, the backslash, and the HTML-significant <, >, & are escaped;
// everything else (including DEL) passes through.
var jsonSafe [utf8.RuneSelf]bool

func init() {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		jsonSafe[b] = true
	}
	jsonSafe['"'] = false
	jsonSafe['\\'] = false
	jsonSafe['<'] = false
	jsonSafe['>'] = false
	jsonSafe['&'] = false
}

// AppendJSONString appends s as a JSON string literal, byte-identical to
// encoding/json.Marshal's default encoding for every input string: the
// same two-character escapes, \u00XX for remaining control bytes, HTML
// escaping of <, >, and &,  /  escaped for JavaScript embedding,
// and each invalid UTF-8 byte replaced with �. The golden-trace gate
// and FuzzAppendJSONString hold the two encoders equal. Unlike the
// json.Marshal path it replaces, it allocates nothing beyond dst growth.
//
// lint:hotpath
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}

// WriteEventsJSONL streams events as JSONL.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range events {
		line = AppendEvent(line[:0], events[i])
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("obs: writing event %d: %w", i, err)
		}
	}
	return bw.Flush()
}
