// Package trace records flight trajectories for the paper's Fig. 7
// trajectory-analysis visualisations and exports them as CSV.
package trace

import (
	"fmt"
	"io"
	"strings"

	"mavfi/internal/geom"
)

// Sample is one trajectory point.
type Sample struct {
	T   float64
	Pos geom.Vec3
	Vel geom.Vec3
	Yaw float64
	// Event tags notable ticks: "inject", "alarm", "replan", "crash".
	Event string
}

// Trace is one mission's recorded trajectory.
type Trace struct {
	Label   string
	Samples []Sample
}

// Sink receives a mission's trajectory samples as the flight progresses —
// the streaming counterpart to reading Result.Trace after the mission ends,
// used by the mission recorder (internal/record) to persist ticks while the
// mission is still flying.
//
// Contract: Append is called once per sample, in tick order, and only with
// finalized samples — samples whose Event tag can no longer change. Event
// tags attach retroactively (MarkEvent tags the most recent sample, and a
// tick's replan/alarm tags land before the *next* sample is added), so the
// pipeline streams sample i only once sample i+1 is about to be recorded,
// and flushes the remainder at mission end. Append must not retain s's
// Event string beyond the call if it wants to stay allocation-free; it is
// invoked from the mission tick loop, so implementations must keep the call
// cheap and must not block on unbounded work (the record.Writer compresses
// one chunk of a few hundred samples at a time, into buffers it sized up
// front).
// Errors are reported out of band (e.g. record.Writer.Close): Append does
// not return one, keeping the tick path free of error-wrapping allocations.
type Sink interface {
	Append(s Sample)
}

// Add appends a sample. Within a Reserve'd capacity Add never allocates,
// which is how recorded missions keep the steady-state tick loop
// allocation-free.
func (t *Trace) Add(s Sample) { t.Samples = append(t.Samples, s) }

// Reserve grows the sample storage to hold at least n samples without
// reallocation, so a recorder that knows its tick budget (the mission loop
// reserves MaxMissionS/TickS up front) pays one allocation instead of a
// log₂(n) growth chain of per-tick reallocations mid-flight.
func (t *Trace) Reserve(n int) {
	if cap(t.Samples) < n {
		s := make([]Sample, len(t.Samples), n)
		copy(s, t.Samples)
		t.Samples = s
	}
}

// Reset empties the trace for reuse, keeping the reserved storage: together
// with Reserve this makes a Trace a reusable ring-style buffer — a caller
// recording many missions in turn can recycle one Trace (and its one
// allocation) across all of them.
func (t *Trace) Reset() {
	t.Samples = t.Samples[:0]
	t.Label = ""
}

// MarkEvent tags the most recent sample with an event (appending when the
// sample already carries one).
func (t *Trace) MarkEvent(ev string) {
	if len(t.Samples) == 0 {
		return
	}
	s := &t.Samples[len(t.Samples)-1]
	if s.Event == "" {
		s.Event = ev
	} else if !strings.Contains(s.Event, ev) {
		s.Event += "+" + ev
	}
}

// PathLength returns the flown path length in metres.
func (t *Trace) PathLength() float64 {
	total := 0.0
	for i := 1; i < len(t.Samples); i++ {
		total += t.Samples[i].Pos.Dist(t.Samples[i-1].Pos)
	}
	return total
}

// Detour compares this trace's path length against a reference trace and
// returns the excess fraction (0.25 = 25% longer).
func (t *Trace) Detour(ref *Trace) float64 {
	rl := ref.PathLength()
	if rl <= 0 {
		return 0
	}
	return t.PathLength()/rl - 1
}

// Events returns the tagged samples in order.
func (t *Trace) Events() []Sample {
	var out []Sample
	for _, s := range t.Samples {
		if s.Event != "" {
			out = append(out, s)
		}
	}
	return out
}

// WriteCSV emits the trace as CSV with a label column so multiple traces
// (golden / FI / FI+D&R) can share one file for plotting.
func (t *Trace) WriteCSV(w io.Writer, header bool) error {
	if header {
		if _, err := fmt.Fprintln(w, "label,t,x,y,z,vx,vy,vz,yaw,event"); err != nil {
			return err
		}
	}
	for _, s := range t.Samples {
		_, err := fmt.Fprintf(w, "%s,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%s\n",
			t.Label, s.T, s.Pos.X, s.Pos.Y, s.Pos.Z, s.Vel.X, s.Vel.Y, s.Vel.Z, s.Yaw, s.Event)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteAllCSV writes several traces into one CSV stream.
func WriteAllCSV(w io.Writer, traces ...*Trace) error {
	for i, tr := range traces {
		if err := tr.WriteCSV(w, i == 0); err != nil {
			return err
		}
	}
	return nil
}
