package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// decoded mirrors of the trace JSON, using map args so unknown keys surface.
type decodedEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

type decodedFile struct {
	TraceEvents     []decodedEvent `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
}

// buildTrace records a small but fully hierarchical solve: one solve span,
// two iterations with one charged phase span each, and a kernel mark.
func buildTrace() *Tracer {
	tr := NewTracer(64)
	simNow := time.Duration(0)
	solve := tr.BeginSolve()
	for k := 0; k < 2; k++ {
		iter := tr.BeginIter(k)
		sp := tr.Begin(Phase(k % NumPhases))
		d := time.Duration(k+1) * time.Microsecond
		sp.EndSim(int64(k), simNow, d)
		simNow += d
		iter.End(int64(k))
	}
	tr.Mark(PhaseRebalance, 3, simNow, 0) // host-instant event, no sim dur
	solve.End(2)
	return tr
}

// TestPerfettoSchema validates the exporter output against what the
// Perfetto/Chrome trace-event importer requires: a traceEvents array, "M"
// metadata naming each scope's process and threads, and "X" complete events
// that all carry name/ph/ts/dur/pid/tid with per-track monotonic ts.
func TestPerfettoSchema(t *testing.T) {
	tr := buildTrace()
	scopes := []ScopeSpans{{Name: "solve-1", Spans: tr.Snapshot(nil)}}

	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, scopes); err != nil {
		t.Fatal(err)
	}
	var f decodedFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}

	var meta, complete int
	lastTs := map[int]float64{}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("event %d missing required name/ph: %+v", i, ev)
		}
		switch ev.Ph {
		case "M":
			meta++
			if ev.Args["name"] == nil {
				t.Fatalf("metadata event %d has no args.name", i)
			}
		case "X":
			complete++
			if ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
				t.Fatalf("complete event %d missing ts/dur/pid/tid: %+v", i, ev)
			}
			if *ev.Dur < 0 || *ev.Ts < 0 {
				t.Fatalf("complete event %d has negative ts/dur: %+v", i, ev)
			}
			if prev, ok := lastTs[*ev.Tid]; ok && *ev.Ts < prev {
				t.Fatalf("ts not monotonic on tid %d: %v after %v", *ev.Tid, *ev.Ts, prev)
			}
			lastTs[*ev.Tid] = *ev.Ts
		default:
			t.Fatalf("unexpected phase type %q", ev.Ph)
		}
	}
	if meta != 3 {
		t.Fatalf("want 3 metadata events (process + 2 threads), got %d", meta)
	}
	// 6 recorded spans on the host track; 2 charged sim intervals
	// (one phase per iteration) on the sim track.
	if complete != 8 {
		t.Fatalf("complete events = %d, want 8", complete)
	}
	if len(lastTs) != 2 {
		t.Fatalf("want events on 2 tracks (host + sim), got tids %v", lastTs)
	}
}

// TestPerfettoNesting checks the hierarchy renders as ts/dur containment on
// the host track: every child "X" event lies inside its parent's interval.
func TestPerfettoNesting(t *testing.T) {
	tr := buildTrace()
	scopes := []ScopeSpans{{Name: "solve-1", Spans: tr.Snapshot(nil)}}

	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, scopes); err != nil {
		t.Fatal(err)
	}
	var f decodedFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	// Index host-track events by span id from args.
	type iv struct{ ts, end float64 }
	host := map[int]iv{}
	parent := map[int]int{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" || ev.Cat != "host" {
			continue
		}
		id := int(ev.Args["id"].(float64))
		host[id] = iv{*ev.Ts, *ev.Ts + *ev.Dur}
		parent[id] = int(ev.Args["parent"].(float64))
	}
	if len(host) != 6 {
		t.Fatalf("host track has %d events, want 6", len(host))
	}
	for id, span := range host {
		p := parent[id]
		if p < 0 {
			continue
		}
		ps, ok := host[p]
		if !ok {
			t.Fatalf("span %d references missing parent %d", id, p)
		}
		if span.ts < ps.ts || span.end > ps.end+1e-9 {
			t.Fatalf("span %d [%v,%v] escapes parent %d [%v,%v]",
				id, span.ts, span.end, p, ps.ts, ps.end)
		}
	}
}

// TestPerfettoMultiScope: each scope renders as its own process, so
// concurrent solves never interleave on a track.
func TestPerfettoMultiScope(t *testing.T) {
	a, b := buildTrace(), buildTrace()
	var buf bytes.Buffer
	err := WriteTraceJSON(&buf, []ScopeSpans{
		{Name: "nearfar-1", Spans: a.Snapshot(nil)},
		{Name: "selftuning-2", Spans: b.Snapshot(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var f decodedFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Pid != nil {
			pids[*ev.Pid] = true
		}
		if ev.Ph == "M" && ev.Name == "process_name" {
			names[ev.Args["name"].(string)] = true
		}
	}
	if len(pids) != 2 {
		t.Fatalf("want 2 pids, got %v", pids)
	}
	if !names["solve nearfar-1"] || !names["solve selftuning-2"] {
		t.Fatalf("process names wrong: %v", names)
	}
}

func TestPerfettoEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var f decodedFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.TraceEvents == nil {
		t.Fatal("traceEvents must be [] even when empty")
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "M" {
			t.Fatalf("empty trace should contain only metadata, got %+v", ev)
		}
	}
}
