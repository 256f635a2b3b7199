package prof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/load"
)

// ExportTraceEvents writes the snapshot's timeline in the Chrome
// trace-event format (the JSON array form), loadable in chrome://tracing
// or Perfetto. Each worker becomes a thread; each timeline record becomes
// a complete ("X") event with microsecond timestamps, and each admission
// non-admission (ADMIT_REJECT / ADMIT_SHED / ADMIT_CANCEL / ADMIT_EXPIRE)
// becomes an instant ("i") on a synthetic admission thread (tid = worker
// count) carrying the class in its args — a saturation episode reads as a
// burst on that row, lined up against the worker rows it starved. This
// complements the paper's ASCII summaries with an interactive view of the
// same data.
func (s Snapshot) ExportTraceEvents(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	type traceEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`            // microseconds
		Dur  float64        `json:"dur,omitempty"` // microseconds
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		S    string         `json:"s,omitempty"` // instant-event scope
		Args map[string]any `json:"args,omitempty"`
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		data, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("prof: trace export: %w", err)
		}
		_, err = bw.Write(data)
		return err
	}
	for tid := 0; tid < s.Workers; tid++ {
		for _, r := range s.Events[tid] {
			if err := emit(traceEvent{
				Name: r.Ev.String(),
				Ph:   "X",
				TS:   float64(r.Start) / 1e3,
				Dur:  float64(r.End-r.Start) / 1e3,
				PID:  1,
				TID:  tid,
			}); err != nil {
				return err
			}
		}
	}
	for _, ae := range s.AdmitEvents {
		if err := emit(traceEvent{
			Name: "ADMIT_" + ae.Outcome.String(),
			Ph:   "i",
			TS:   float64(ae.At) / 1e3,
			PID:  1,
			TID:  s.Workers, // the admission edge's own row
			S:    "t",       // thread-scoped tick on the admission row
			Args: map[string]any{"class": load.Class(ae.Class).String()},
		}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
