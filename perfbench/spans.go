package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Op     int64  `json:"op"`     // the op (loop iteration) it belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced loops pay one nil check per span.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	nextOp atomic.Int64
	mu     sync.Mutex
	spans  []span

	// on says whether the current epoch's ops are traced. With alternate
	// set only even epochs are, so the odd ones are an untraced baseline;
	// prof, if set, profiles the traced epochs.
	on        atomic.Bool
	alternate bool
	prof      *profile
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// startEpoch is called before loop epoch i starts and reports whether its
// ops are traced; it starts the CPU profile for a traced epoch.
func (r *recorder) startEpoch(i int) bool {
	if r == nil {
		return false
	}
	on := !r.alternate || i%2 == 0
	r.on.Store(on)
	if on && r.prof != nil {
		r.prof.start()
	}
	return on
}

// endEpoch is called once every op of an epoch has returned.
func (r *recorder) endEpoch() {
	if r != nil && r.prof != nil {
		r.prof.stop()
	}
}

// next allocates the next op's id and returns the recorder to trace it
// with: nil, tracing nothing, when r is nil or the epoch is untraced.
func (r *recorder) next() (*recorder, int64) {
	if r == nil {
		return nil, 0
	}
	id := r.nextOp.Add(1)
	if !r.on.Load() {
		return nil, id
	}
	return r, id
}

// openSpan is a span that has started but not ended.
type openSpan struct {
	r     *recorder
	id    int64
	s     span
	start time.Time
}

// begin starts a span; parent may be nil for a root span.
func (r *recorder) begin(name string, parent *openSpan, op int64) *openSpan {
	if r == nil {
		return nil
	}
	o := &openSpan{r: r, id: r.nextID.Add(1), start: time.Now()}
	o.s = span{ID: o.id, Op: op, Name: name}
	if parent != nil {
		o.s.Parent = parent.id
	}
	return o
}

// end closes the span and records it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	now := time.Now()
	o.s.Start = o.start.Sub(o.r.t0).Nanoseconds()
	o.s.End = now.Sub(o.r.t0).Nanoseconds()
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// durations returns the durations in ms of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// medianMS returns the median duration of the named spans in ms.
func (r *recorder) medianMS(name string) float64 { return median(r.durations(name)) }

// write dumps every span, one JSON object per line, followed by the
// per-layer metrics, to path.
func (r *recorder) write(path string, m metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := enc.Encode(map[string]any{"metrics": m}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
