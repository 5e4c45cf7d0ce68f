package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// referencePath holds the recorded outputs every run is checked against,
// relative to the repository root.
const referencePath = "perfbench/reference.json"

// op is one operation a workload attempted. A simulated cell names itself
// in Cell and carries the cycles and stats digest it produced; Err is set
// when the operation itself failed (an HTTP error, a cache hit that
// differs from its cold run, a simulation error).
type op struct {
	Cell   string `json:"cell,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// refEntry is one cell's recorded output.
type refEntry struct {
	Cycles int64  `json:"cycles"`
	Digest string `json:"stats_digest"`
}

// reference maps a cell name to its recorded output.
type reference map[string]refEntry

func loadReference(path string) (reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference outputs: %w", err)
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return r, nil
}

// verdict is "" when o succeeded and matches the reference, otherwise the
// reason it counts as failed.
func (r reference) verdict(o op) string {
	if o.Err != "" {
		return o.Err
	}
	if o.Cell == "" {
		return ""
	}
	want, ok := r[o.Cell]
	if !ok {
		return fmt.Sprintf("%s: no reference output recorded", o.Cell)
	}
	if o.Cycles != want.Cycles || o.Digest != want.Digest {
		return fmt.Sprintf("%s: got %d cycles digest %s, reference %d cycles digest %s",
			o.Cell, o.Cycles, o.Digest, want.Cycles, want.Digest)
	}
	return ""
}

// tally counts ops attempted and failed against the reference and keeps
// the first few failure reasons.
func (r reference) tally(ops []op) (attempted, failed int, reasons []string) {
	for _, o := range ops {
		attempted++
		if why := r.verdict(o); why != "" {
			failed++
			if len(reasons) < 5 {
				reasons = append(reasons, why)
			}
		}
	}
	return attempted, failed, reasons
}

// record builds a reference from the cells of successful ops. Two ops of
// one cell that disagree (a cache hit differing from its cold run, or a
// run that is not deterministic) make recording fail.
func record(ops []op) (reference, error) {
	r := make(reference)
	for _, o := range ops {
		if o.Err != "" {
			return nil, fmt.Errorf("cannot record a reference from a failed run: %s", o.Err)
		}
		if o.Cell == "" {
			continue
		}
		e := refEntry{Cycles: o.Cycles, Digest: o.Digest}
		if prev, ok := r[o.Cell]; ok && prev != e {
			return nil, fmt.Errorf("%s: two runs disagree (%v vs %v)", o.Cell, prev, e)
		}
		r[o.Cell] = e
	}
	return r, nil
}

func (r reference) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
