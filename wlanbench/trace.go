package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one recorded call into a layer. Spans of one packet (or one
// service job) share ID; Parent is the Seq of the enclosing span, 0 for a
// root.
type span struct {
	ID     int64  `json:"id"`
	Seq    int64  `json:"seq"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Group  string `json:"group,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; beyond it only the per-layer
// totals grow.
const maxSpans = 1 << 20

// layerKey aggregates spans by group (e.g. the front end of a table2
// packet) and name.
type layerKey struct{ group, name string }

// tracer records spans in memory around calls the benchmark makes into the
// library's layers, and writes them out when the run ends. It is used from
// one goroutine.
type tracer struct {
	epoch   time.Time
	seq     int64
	ids     int64
	curID   int64
	curRoot int64
	// group tags subsequent spans (table2 splits its layers by front end).
	group   string
	spans   []span
	dropped int
	totals  map[layerKey]time.Duration
	calls   map[layerKey]int
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{
		epoch:  epoch,
		totals: map[layerKey]time.Duration{},
		calls:  map[layerKey]int{},
	}
}

// spanTok is an open span.
type spanTok struct {
	seq, parent, id int64
	name            string
	start           time.Duration
}

// root opens the root span of a new packet or job; later spans until the
// next root share its id and hang off it.
func (t *tracer) root(name string) spanTok {
	t.ids++
	t.curID = t.ids
	s := t.open(name, 0)
	t.curRoot = s.seq
	return s
}

// begin opens a layer span under the current root.
func (t *tracer) begin(name string) spanTok { return t.open(name, t.curRoot) }

func (t *tracer) open(name string, parent int64) spanTok {
	t.seq++
	return spanTok{seq: t.seq, parent: parent, id: t.curID, name: name, start: time.Since(t.epoch)}
}

// end closes a span and adds its duration to its layer's total.
func (t *tracer) end(s spanTok) { t.record(s, time.Since(t.epoch)) }

func (t *tracer) record(s spanTok, end time.Duration) {
	k := layerKey{t.group, s.name}
	t.totals[k] += end - s.start
	t.calls[k]++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: s.id, Seq: s.seq, Parent: s.parent, Name: s.name, Group: t.group,
		Start: int64(s.start), End: int64(end),
	})
}

// add records a span measured elsewhere, relative to the tracer's epoch,
// under the given parent (0 opens a new id). It returns the span's seq.
func (t *tracer) add(name string, parent int64, start, end time.Duration) int64 {
	if parent == 0 {
		t.ids++
		t.curID = t.ids
	}
	t.seq++
	t.record(spanTok{seq: t.seq, parent: parent, id: t.curID, name: name, start: start}, end)
	return t.seq
}

// total returns a layer's summed span time over all groups.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for k, v := range t.totals {
		if k.name == name {
			d += v
		}
	}
	return d
}

// groupTotal returns a layer's summed span time within one group.
func (t *tracer) groupTotal(group, name string) time.Duration {
	return t.totals[layerKey{group, name}]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
