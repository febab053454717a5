package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The recorded outputs: per workload, size and seed, the SHA-256 over
// the report fingerprints in query-time order, and for the dashboard
// the values of the last flow map. A run on a recorded seed must
// reproduce them; every run is also checked against a reference path
// computed in the same process.
//
//go:embed recorded
var recordedFS embed.FS

type recording struct {
	Digest string    `json:"digest"`
	Flows  []float64 `json:"flows,omitempty"`
}

func recordingPath(workload, size string, seed int64) string {
	return fmt.Sprintf("recorded/%s-%s-seed%d.json", workload, size, seed)
}

func loadRecording(workload, size string, seed int64) (recording, bool) {
	data, err := recordedFS.ReadFile(recordingPath(workload, size, seed))
	if err != nil {
		return recording{}, false
	}
	var r recording
	if err := json.Unmarshal(data, &r); err != nil {
		return recording{}, false
	}
	return r, true
}

func recordedDigest(workload, size string, seed int64) (string, bool) {
	r, ok := loadRecording(workload, size, seed)
	return r.Digest, ok && r.Digest != ""
}

func recordedFlows(workload, size string, seed int64) ([]float64, bool) {
	r, ok := loadRecording(workload, size, seed)
	return r.Flows, ok && r.Flows != nil
}

// writeRecording stores a repetition's outputs as the recording for
// this workload, size and seed, under the --record directory.
func (b *bench) writeRecording(r *repResult) error {
	ordered := make([]string, 0, len(r.got))
	for _, q := range b.p.boundaries() {
		ordered = append(ordered, r.got[q])
	}
	data, err := json.MarshalIndent(recording{Digest: digest(ordered), Flows: r.lastMap}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.opts.record, filepath.Base(recordingPath(b.opts.workload, b.opts.size, b.opts.seed)))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
