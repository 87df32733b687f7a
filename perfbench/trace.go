package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmafault/internal/campaign"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a module's public function.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0: a root span
	Group  int64  `json:"group"`            // the scenario or campaign the span serves
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc is the runtime.MemStats.TotalAlloc delta over the span, for
	// spans recorded on a single goroutine with allocation accounting.
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; its ID is known at once so children can name it.
func (t *tracer) begin(name string, parent, group int64) *span {
	return &span{ID: t.next.Add(1), Parent: parent, Group: group, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()}
}

// end closes and records s.
func (t *tracer) end(s *span) {
	s.End = time.Since(t.epoch).Nanoseconds()
	t.record(*s)
}

// record stores an already timed span, assigning an ID if it has none.
func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.next.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's nanosecond offset.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// named returns the recorded spans called name, in recording order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the durations of the spans called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that the
// given spans cover (overlaps counted once).
func selfTime(root span, covering []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range covering {
		a, b := max(c.Start, root.Start), min(c.End, root.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	return root.dur() - time.Duration(covered)
}

// write dumps every span as one JSON line, in recording order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples is a concurrency-safe list of measurements.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// timedStore times the engine's calls into its result cache.
type timedStore struct {
	inner      campaign.Store
	gets, puts *samples // microseconds
	hits, miss atomic.Int64
}

func (s *timedStore) Get(d campaign.Digest) (*campaign.Result, bool) {
	t0 := time.Now()
	r, ok := s.inner.Get(d)
	s.gets.add(float64(time.Since(t0)) / float64(time.Microsecond))
	if ok {
		s.hits.Add(1)
	} else {
		s.miss.Add(1)
	}
	return r, ok
}

func (s *timedStore) Put(d campaign.Digest, r *campaign.Result) error {
	t0 := time.Now()
	err := s.inner.Put(d, r)
	s.puts.add(float64(time.Since(t0)) / float64(time.Microsecond))
	return err
}

// timedTransport records one "fabric.http" span per coordinator request,
// from the request until its body is closed, grouped by campaign.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer
	group *atomic.Int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.begin("fabric.http", 0, t.group.Load())
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.tr.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, sp: sp}
	return resp, nil
}

// spanBody ends its span once, when the response body is closed.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	sp   *span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.tr.end(b.sp) })
	return err
}

// faultdRoutes are the route classes of the worker handler spans.
var faultdRoutes = []string{"submit", "poll", "readyz", "other"}

func faultdRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/campaigns":
		return "submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/campaigns/") &&
		!strings.Contains(strings.TrimPrefix(p, "/v1/campaigns/"), "/"):
		return "poll"
	case p == "/readyz":
		return "readyz"
	}
	return "other"
}

// timedHandler wraps a faultd worker's handler; while active holds a
// tracer it records one "faultd.<route>" span per request.
func timedHandler(h http.Handler, active *atomic.Pointer[tracer], group *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := active.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("faultd."+faultdRoute(r), 0, group.Load())
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// spanFile names the trace dump of one run.
func spanFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
