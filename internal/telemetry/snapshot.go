package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time, immutable export of a registry: every
// instrument's current value plus the retained trace trees. It marshals
// directly to JSON and renders as a text report with WriteText.
//
// Counters, Gauges and Histograms are part of the determinism contract: two
// runs of one seed on the virtual clock export identical values whatever the
// host's core count or scheduler does. GaugePeaks and Traces are not, and
// Deterministic drops them: a peak is the high-water mark of a gauge that
// concurrent goroutines move, so it records how many of them the scheduler
// happened to overlap, and spans carry wall-clock start times.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	GaugePeaks map[string]int64        `json:"gauge_peaks,omitempty"` // scheduling-dependent
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Traces     []TraceSnapshot         `json:"traces,omitempty"` // wall-clock-dependent
}

// Deterministic returns the snapshot without its scheduling- and
// wall-clock-dependent fields (GaugePeaks, Traces) — the part two same-seed
// runs must agree on bit for bit.
func (s Snapshot) Deterministic() Snapshot {
	s.GaugePeaks = nil
	s.Traces = nil
	return s
}

// HistSnapshot summarizes one histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// TraceSnapshot is one exported trace tree.
type TraceSnapshot struct {
	Root SpanSnapshot `json:"root"`
}

// SpanSnapshot is one exported span.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    []Attr         `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot exports the registry's current state. On a nil registry it
// returns an empty snapshot, so exporters need no guards either.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		GaugePeaks: map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return out
	}
	r.mu.RLock()
	for name, c := range r.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		out.Gauges[name] = g.Value()
		if p := g.Peak(); p != g.Value() {
			out.GaugePeaks[name] = p
		}
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()
	for name, h := range hists {
		out.Histograms[name] = HistSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			Min:   h.Min(),
			Max:   h.Max(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
	}
	for _, t := range r.Traces() {
		out.Traces = append(out.Traces, t.Snapshot())
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as a human-readable report: counters and
// gauges sorted by name, histogram quantile summaries, then each retained
// trace as an indented span tree.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	b.WriteString("== telemetry report ==\n")
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedNames(s.Counters) {
			fmt.Fprintf(&b, "  %-44s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedNames(s.Gauges) {
			fmt.Fprintf(&b, "  %-44s %12d\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:          count      mean       min       p50       p90       p99       max\n")
		names := make([]string, 0, len(s.Histograms))
		for n := range s.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			h := s.Histograms[name]
			fmt.Fprintf(&b, "  %s\n    %10d %9.2f %9d %9d %9d %9d %9d\n",
				name, h.Count, h.Mean, h.Min, h.P50, h.P90, h.P99, h.Max)
		}
	}
	for i, t := range s.Traces {
		fmt.Fprintf(&b, "trace %d (%d spans):\n", i+1, t.Root.spanCount())
		writeSpan(&b, t.Root, 1)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (s SpanSnapshot) spanCount() int {
	n := 1
	for _, c := range s.Children {
		n += c.spanCount()
	}
	return n
}

func writeSpan(b *strings.Builder, s SpanSnapshot, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s (%v)", s.Name, s.Duration.Round(time.Microsecond))
	for _, a := range s.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeSpan(b, c, depth+1)
	}
}

func sortedNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler returns an expvar-style HTTP endpoint serving the registry's
// current snapshot. "?format=text" returns the text report; the default is
// JSON. Works (serving empty snapshots) on a nil registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snap.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snap.WriteJSON(w)
	})
}
