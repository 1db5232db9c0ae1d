package harness

import (
	"bytes"
	"io"

	"daredevil/internal/prof"
)

// Artifacts are a cell's rendered observability exports. This file is the
// one place that decides which exports exist, what they are called, and in
// which order they appear; ddbench, ddsim, ddserve and the public facade
// store or write the list and nothing else.

// Artifact is one named, deterministic export: its bytes are identical for
// identical specs at any parallelism, so it can be cached, served, and
// pinned by golden tests.
type Artifact struct {
	Name string
	Data []byte
}

// render is one export still to be written.
type render struct {
	name  string
	write func(io.Writer) error
}

// renderAll renders each export into its own buffer, in order.
func renderAll(rs []render) ([]Artifact, error) {
	arts := make([]Artifact, 0, len(rs))
	for _, r := range rs {
		var buf bytes.Buffer
		if err := r.write(&buf); err != nil {
			return nil, err
		}
		arts = append(arts, Artifact{Name: r.name, Data: buf.Bytes()})
	}
	return arts, nil
}

// profileStem names a cell's profile exports: profile.txt, profile.folded,
// profile.svg and profile.json. RunProfDemo's merged grid profile shares
// it; each of its cells uses its label instead.
const profileStem = "profile"

// profileRenders lists a layer profile's four exports, named stem plus
// extension: the aligned breakdown table, flame-graph folded stacks, the
// stacked-bar SVG, and the canonical mergeable JSON.
func profileRenders(stem string, p prof.Profile) []render {
	return []render{
		{stem + ".txt", p.WriteBreakdownTable},
		{stem + ".folded", p.WriteFoldedStacks},
		{stem + ".svg", p.WriteBreakdownSVG},
		{stem + ".json", p.WriteJSON},
	}
}

// Artifacts renders, in canonical order, every deterministic export the
// cell armed:
//
//   - tracing: trace.json (Chrome trace-event JSON, open at
//     ui.perfetto.dev) and trace.txt (the aligned phase table);
//   - metrics sampling: metrics.csv and metrics.svg (sparklines);
//   - flight.txt, the flight-recorder dumps, only when host recovery
//     escalated and captured one;
//   - profiling: profile.txt, profile.folded, profile.svg and
//     profile.json.
//
// A cell that armed nothing returns an empty list. Call after Run. The
// host self-profile (WriteSelfProfile) is not an artifact: its bytes vary
// from host to host and run to run.
func (c *Cell) Artifacts() ([]Artifact, error) {
	var rs []render
	if o := c.Env.Obs; o != nil {
		if t := o.Tracer(); t != nil {
			rs = append(rs, render{"trace.json", t.WriteJSON}, render{"trace.txt", t.WriteTable})
		}
		if s := o.Sampler(); s != nil {
			rs = append(rs, render{"metrics.csv", s.WriteCSV},
				render{"metrics.svg", func(w io.Writer) error { return writeObsSVG(w, s) }})
		}
		if f := o.Flight(); len(f.Dumps()) > 0 {
			rs = append(rs, render{"flight.txt", f.WriteText})
		}
	}
	if c.profExports {
		rs = append(rs, profileRenders(profileStem, c.prof.Profile())...)
	}
	return renderAll(rs)
}
