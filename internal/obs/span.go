package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span. Parent links spans into trees: a job
// root span owns one child span per executed op.
type SpanRecord struct {
	ID          uint64 `json:"id"`
	Parent      uint64 `json:"parent,omitempty"`
	Name        string `json:"name"`
	Attrs       string `json:"attrs,omitempty"`
	StartUnixNs int64  `json:"startUnixNs"`
	DurNs       int64  `json:"durNs"`
}

// Tracer records completed spans into a bounded ring buffer: when full, the
// oldest spans are overwritten, so a long-lived server never grows its
// trace memory. The zero value is not usable; create with NewTracer.
type Tracer struct {
	nextID atomic.Uint64

	mu   sync.Mutex
	buf  []SpanRecord
	head int // next write position
	full bool
}

// NewTracer returns a tracer retaining the last capacity completed spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Tracer{buf: make([]SpanRecord, 0, capacity)}
}

// DefaultTracer is the process-wide tracer.
var DefaultTracer = NewTracer(4096)

// Span is an in-flight span handle. Methods are nil-safe so call sites can
// stay unconditional.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	attrs  string
	start  time.Time
}

// Start opens a span. parent is the ID of the enclosing span (0 for a
// root). The span is recorded when End is called.
func (t *Tracer) Start(name string, parent uint64) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tr:     t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
}

// ID returns the span's identifier for parenting children (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Annotate attaches a short free-form attribute string (last write wins).
func (s *Span) Annotate(attrs string) {
	if s != nil {
		s.attrs = attrs
	}
}

// End completes the span and records it in the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		ID:          s.id,
		Parent:      s.parent,
		Name:        s.name,
		Attrs:       s.attrs,
		StartUnixNs: s.start.UnixNano(),
		DurNs:       int64(time.Since(s.start)),
	}
	t := s.tr
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, rec)
	} else {
		t.buf[t.head] = rec
		t.full = true
	}
	t.head = (t.head + 1) % cap(t.buf)
	t.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.head:]...)
		out = append(out, t.buf[:t.head]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}
