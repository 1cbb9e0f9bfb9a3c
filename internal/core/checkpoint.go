// Checkpoint format versioning and the drift-baseline sidecar.
//
// Every artifact this package persists — the model checkpoint and the
// drift baseline written next to it — starts with the same fixed binary
// header: an 8-byte magic ("PYTHCKPT") and a big-endian uint32 format
// version. The header is raw bytes, not gob: a gob stream cannot be probed
// and rewound, so the version must be decidable from a fixed prefix before
// any decoder touches the payload. A reader confronted with a future
// version fails with *UnsupportedVersionError — a typed, inspectable "this
// binary is too old", distinct from corruption — instead of surfacing a
// baffling gob decode error from halfway into a payload it was never meant
// to understand.
package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/sematype/pythagoras/internal/fsutil"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// checkpointMagic identifies a Pythagoras artifact; it doubles as a cheap
// "is this even one of ours" check before the version is trusted.
const checkpointMagic = "PYTHCKPT"

// CheckpointVersion is the current checkpoint format version. History:
//
//	1 — first versioned format: header + gob(savedMeta) + gob(params).
//	    Pre-versioning checkpoints (no header) are rejected; retrain or
//	    re-save with this binary.
const CheckpointVersion uint32 = 1

// UnsupportedVersionError reports an artifact written by a newer format
// than this binary understands. Callers can errors.As on it to tell "too
// new" apart from "corrupt".
type UnsupportedVersionError struct {
	Artifact string // "checkpoint" or "drift baseline"
	Got      uint32
	Max      uint32
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("core: %s format version %d is newer than this binary supports (max %d)",
		e.Artifact, e.Got, e.Max)
}

// writeHeader writes the magic + version prefix.
func writeHeader(w io.Writer, version uint32) error {
	var hdr [len(checkpointMagic) + 4]byte
	copy(hdr[:], checkpointMagic)
	binary.BigEndian.PutUint32(hdr[len(checkpointMagic):], version)
	_, err := w.Write(hdr[:])
	return err
}

// readHeader consumes and validates the magic + version prefix. artifact
// names the file kind in errors.
func readHeader(r io.Reader, artifact string, maxVersion uint32) (uint32, error) {
	var hdr [len(checkpointMagic) + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("core: read %s header: %w", artifact, err)
	}
	if string(hdr[:len(checkpointMagic)]) != checkpointMagic {
		return 0, fmt.Errorf("core: not a pythagoras %s (bad magic %q)", artifact, hdr[:len(checkpointMagic)])
	}
	v := binary.BigEndian.Uint32(hdr[len(checkpointMagic):])
	if v == 0 {
		return 0, fmt.Errorf("core: %s declares version 0 (corrupt header)", artifact)
	}
	if v > maxVersion {
		return 0, &UnsupportedVersionError{Artifact: artifact, Got: v, Max: maxVersion}
	}
	return v, nil
}

// --- drift baseline sidecar ---

// DriftBaselineVersion is the drift sidecar's format version; it shares the
// checkpoint's header layout and typed version error.
const DriftBaselineVersion uint32 = 1

// DriftSidecarPath is the conventional location of a model's drift baseline:
// next to the checkpoint, with a fixed suffix.
func DriftSidecarPath(modelPath string) string { return modelPath + ".drift.json" }

// ComputeDriftBaseline runs the trained model over its own training tables
// and tallies the predicted-type distribution and confidence histogram —
// the reference a serving-time obs.DriftMonitor compares live traffic
// against. Using the model's *predictions* (not the labels) is deliberate:
// drift is measured between two prediction distributions, so the baseline
// must be produced by the same mechanism that produces the serving side.
func (m *Model) ComputeDriftBaseline(tables []*table.Table) obs.DriftBaseline {
	b := obs.DriftBaseline{
		TypeCounts: map[string]uint64{},
		ConfBounds: obs.ConfidenceBuckets,
		ConfCounts: make([]uint64, len(obs.ConfidenceBuckets)+1),
	}
	for _, t := range tables {
		for _, p := range m.PredictTable(t) {
			b.TypeCounts[p.Type]++
			i := 0
			for i < len(b.ConfBounds) && p.Confidence > b.ConfBounds[i] {
				i++
			}
			b.ConfCounts[i]++
		}
	}
	return b
}

// SaveDriftBaseline writes a drift baseline sidecar: the shared versioned
// header followed by the baseline as JSON, written atomically like the
// checkpoint itself.
func SaveDriftBaseline(path string, b obs.DriftBaseline) error {
	return fsutil.WriteFile(path, ".drift-*.tmp", 0o644, func(w io.Writer) error {
		if err := writeHeader(w, DriftBaselineVersion); err != nil {
			return err
		}
		if err := json.NewEncoder(w).Encode(b); err != nil {
			return fmt.Errorf("core: encode drift baseline: %w", err)
		}
		return nil
	})
}

// ServingBundle is everything a serving process loads for one model
// version: the checkpoint itself plus the optional drift sidecar, resolved
// together so `serve` at startup and the lifecycle manager's POST
// /v1/models load through one code path.
type ServingBundle struct {
	Model *Model
	Path  string
	// Drift is the monitor seeded from the checkpoint's sidecar; nil when
	// no sidecar exists (a model trained before baselines did still serves,
	// just without drift telemetry).
	Drift *obs.DriftMonitor
	// DriftErr is non-nil when a sidecar was present but unusable (corrupt,
	// future version). The model still serves; callers decide whether to
	// log or refuse.
	DriftErr error
}

// LoadServing loads a checkpoint and its conventional drift sidecar into a
// running process. Checkpoint problems are errors — a serving process must
// never swap in a half-loaded model — while sidecar problems degrade to a
// nil monitor with DriftErr set, because drift telemetry is advisory.
func LoadServing(path string, cfg Config) (*ServingBundle, error) {
	m, err := LoadFile(path, cfg)
	if err != nil {
		return nil, err
	}
	b := &ServingBundle{Model: m, Path: path}
	baseline, err := LoadDriftBaseline(DriftSidecarPath(path))
	switch {
	case err == nil:
		b.Drift = obs.NewDriftMonitor(baseline)
	case !os.IsNotExist(err):
		b.DriftErr = err
	}
	return b, nil
}

// LoadDriftBaseline reads a drift baseline sidecar written by
// SaveDriftBaseline. A sidecar from a future format version returns
// *UnsupportedVersionError.
func LoadDriftBaseline(path string) (obs.DriftBaseline, error) {
	var b obs.DriftBaseline
	f, err := os.Open(path)
	if err != nil {
		return b, err
	}
	defer f.Close()
	if _, err := readHeader(f, "drift baseline", DriftBaselineVersion); err != nil {
		return b, err
	}
	if err := json.NewDecoder(f).Decode(&b); err != nil {
		return b, fmt.Errorf("core: decode drift baseline: %w", err)
	}
	return b, nil
}
