package main

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"time"

	"caltrain/internal/obs"
)

// span is one span of a stitched trace: harness-owned or harvested from
// a daemon's trace store, told apart by Process.
type span struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Process string `json:"process"`
	// StartUS is the span's start relative to the trace's earliest span.
	StartUS    int64 `json:"start_us"`
	DurationUS int64 `json:"duration_us"`
	// SelfUS is the duration minus the union of the interval the span's
	// children cover.
	SelfUS int64  `json:"self_us"`
	Error  string `json:"error,omitempty"`

	start time.Time
}

// trace is every span recorded for one request, across processes.
type trace struct {
	TraceID string `json:"trace_id"`
	Spans   []span `json:"spans"`
}

// foldSelfTimes fills SelfUS and StartUS for every span of the trace.
// A child's interval is clipped to its parent's, and overlapping
// children (parallel shard calls) are counted once.
func foldSelfTimes(t *trace) {
	if len(t.Spans) == 0 {
		return
	}
	type interval struct{ lo, hi int64 }
	origin := t.Spans[0].start
	for _, s := range t.Spans {
		if s.start.Before(origin) {
			origin = s.start
		}
	}
	children := map[string][]interval{}
	for i := range t.Spans {
		s := &t.Spans[i]
		s.StartUS = s.start.Sub(origin).Microseconds()
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], interval{s.StartUS, s.StartUS + s.DurationUS})
		}
	}
	for i := range t.Spans {
		s := &t.Spans[i]
		lo, hi := s.StartUS, s.StartUS+s.DurationUS
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		var covered int64
		at := lo // everything before at is already counted
		for _, k := range kids {
			k.lo, k.hi = max(k.lo, at), min(k.hi, hi)
			if k.hi > k.lo {
				covered += k.hi - k.lo
				at = k.hi
			}
		}
		s.SelfUS = s.DurationUS - covered
	}
}

// spanLayer maps a span to the layer its time is reported under: request
// roots are named by the process that served them, a per-replica attempt
// belongs to the fan-out that made it, every other span keeps its name.
func spanLayer(s span) string {
	switch {
	case strings.HasPrefix(s.Name, "POST ") || strings.HasPrefix(s.Name, "GET "):
		if s.Process == "router" {
			return "router_root"
		}
		return "daemon_root"
	case s.Name == "shard_attempt":
		return "scatter"
	case s.Name == "ingest_attempt":
		return "replicate"
	}
	return s.Name
}

// attribute splits the root span's duration over the layers beneath it,
// in ms: every span contributes its self time, and children that ran in
// parallel share the interval they cover in proportion to their
// durations, so that the layers of one trace add up to what the caller
// waited. Spans not reachable from the root are left out; their time
// stays with the ancestor that was waiting for them. The trace must be
// folded and its first span is the root.
func attribute(t trace) map[string]float64 {
	kids := map[string][]int{}
	for i, s := range t.Spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]float64{}
	var walk func(i int, weight float64)
	walk = func(i int, weight float64) {
		s := t.Spans[i]
		out[spanLayer(s)] += weight * float64(s.SelfUS) / 1e3
		var total int64
		for _, k := range kids[s.ID] {
			total += t.Spans[k].DurationUS
		}
		if total == 0 {
			return
		}
		// Clipping a child to its parent moves the share only when clocks
		// disagree across processes; on one host they do not.
		share := weight * float64(s.DurationUS-s.SelfUS) / float64(total)
		for _, k := range kids[s.ID] {
			walk(k, share)
		}
	}
	walk(0, 1)
	return out
}

// trimmedShare is the share of the slowest traces left out of the layer
// means, so that one host hiccup does not land in whichever layer it hit.
const trimmedShare = 0.05

// meanByLayer attributes every trace and averages each layer over all
// traces but the slowest few; a trace without the layer counts as 0, so
// the layers add up to the mean latency of the traces kept, which is
// returned as well.
func meanByLayer(traces []trace) (layers map[string]float64, clientMS float64) {
	kept := append([]trace(nil), traces...)
	sort.Slice(kept, func(a, b int) bool { return kept[a].Spans[0].DurationUS < kept[b].Spans[0].DurationUS })
	kept = kept[:len(kept)-int(trimmedShare*float64(len(kept)))]
	layers = map[string]float64{}
	if len(kept) == 0 {
		return layers, 0
	}
	for _, t := range kept {
		for layer, ms := range attribute(t) {
			layers[layer] += ms / float64(len(kept))
		}
		clientMS += float64(t.Spans[0].DurationUS) / 1e3 / float64(len(kept))
	}
	return layers, clientMS
}

func fromSnapshot(process string, snap *obs.TraceSnapshot) []span {
	out := make([]span, len(snap.Spans))
	for i, s := range snap.Spans {
		out[i] = span{ID: s.ID, Parent: s.Parent, Name: s.Name, Process: process,
			DurationUS: s.DurationUS, Error: s.Error, start: s.Start}
	}
	return out
}

// harvest stitches the harness's own spans of one request with whatever
// the daemons stored under the same trace ID. A daemon the request never
// reached answers 404 and contributes nothing.
func harvest(ctx context.Context, d *deployment, own *obs.TraceSnapshot) trace {
	t := trace{TraceID: own.TraceID, Spans: fromSnapshot("bench", own)}
	for _, p := range d.procs() {
		body, err := httpGet(ctx, "http://"+p.debug+"/v1/debug/traces/"+own.TraceID)
		if err != nil {
			continue
		}
		var snap obs.TraceSnapshot
		err = json.NewDecoder(body).Decode(&snap)
		body.Close()
		if err == nil {
			t.Spans = append(t.Spans, fromSnapshot(p.name, &snap)...)
		}
	}
	foldSelfTimes(&t)
	return t
}
