package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// The Chrome trace-event JSON object format, the subset Perfetto's legacy
// importer understands: "X" complete events with microsecond ts/dur, plus
// "M" metadata events naming processes and threads. Each solve scope
// renders as its own process; host and simulated time render as two
// threads of that process so the same span can be read on both clocks side
// by side. Nesting (solve → iteration → phase or mark) comes from ts/dur
// containment on the host track, which is how the Chrome format expresses
// hierarchy for "X" events.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const (
	hostTrackID = 1 // host wall-clock spans
	simTrackID  = 2 // charged simulated-device intervals
)

// spanName renders a span's display name by kind.
func spanName(ev SpanEvent) string {
	switch ev.Kind {
	case SpanSolve:
		return "solve"
	case SpanIter:
		return "iter " + itoaSmall(int(ev.Iter))
	case SpanKernel:
		return ev.Phase.String() + " kernel"
	default:
		return ev.Phase.String()
	}
}

// itoaSmall avoids pulling strconv formatting into args maps for the
// common small iteration indices.
func itoaSmall(n int) string {
	if n < 0 {
		return "?"
	}
	buf := [12]byte{}
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(buf[i:])
}

// WriteTraceJSON writes the scopes' span trees as a Perfetto-loadable
// Chrome trace. Each scope is a process (pid = scope index + 1) with a
// host-clock thread and a sim-clock thread. Every span becomes an "X"
// event on the host track — phase spans nest inside iteration spans inside
// the solve span by ts/dur containment — and spans that charged simulated
// time add a second "X" event on the sim track placed at the simulated
// clock, so ui.perfetto.dev shows the host schedule above the device
// schedule it produced. Each track is sorted by its own clock (a span can
// open on the host before an earlier-charging sibling but charge the
// machine after it), so ts is monotonic per track.
func WriteTraceJSON(w io.Writer, scopes []ScopeSpans) error {
	var evs []traceEvent
	for si, sc := range scopes {
		pid := si + 1
		evs = append(evs,
			traceEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": "solve " + sc.Name}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: hostTrackID,
				Args: map[string]any{"name": "host wall clock"}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: simTrackID,
				Args: map[string]any{"name": "simulated device clock"}},
		)

		host := append([]SpanEvent(nil), sc.Spans...)
		sort.Slice(host, func(i, j int) bool {
			if host[i].StartNs != host[j].StartNs {
				return host[i].StartNs < host[j].StartNs
			}
			return host[i].ID < host[j].ID
		})
		for _, ev := range host {
			evs = append(evs, traceEvent{
				Name: spanName(ev),
				Cat:  "host",
				Ph:   "X",
				Ts:   float64(ev.StartNs) / 1e3,
				Dur:  float64(ev.HostNs) / 1e3,
				Pid:  pid,
				Tid:  hostTrackID,
				Args: map[string]any{
					"id": ev.ID, "parent": ev.Parent, "kind": ev.Kind.String(),
					"items": ev.Items, "sim_ns": ev.SimNs,
				},
			})
		}

		var sim []SpanEvent
		for _, ev := range sc.Spans {
			if ev.SimNs > 0 {
				sim = append(sim, ev)
			}
		}
		sort.Slice(sim, func(i, j int) bool {
			if sim[i].SimStartNs != sim[j].SimStartNs {
				return sim[i].SimStartNs < sim[j].SimStartNs
			}
			return sim[i].ID < sim[j].ID
		})
		for _, ev := range sim {
			evs = append(evs, traceEvent{
				Name: spanName(ev),
				Cat:  "sim",
				Ph:   "X",
				Ts:   float64(ev.SimStartNs) / 1e3,
				Dur:  float64(ev.SimNs) / 1e3,
				Pid:  pid,
				Tid:  simTrackID,
				Args: map[string]any{"id": ev.ID, "parent": ev.Parent, "items": ev.Items},
			})
		}
	}
	if evs == nil {
		evs = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
