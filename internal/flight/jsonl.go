package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL serializes the log as versioned JSONL: the first line is the
// Header object (schema + version), every following line one Record in
// iteration order. Floats are encoded in Go's shortest round-tripping
// decimal form, so a log read back with ReadJSONL carries bit-identical
// float64 values — the property the replay gate depends on.
//
// Serialization allocates freely; it runs on demand (CLI export, tests),
// never on the solve path.
func WriteJSONL(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(l.Header); err != nil {
		return fmt.Errorf("flight: encode header: %w", err)
	}
	for i := range l.Records {
		if err := enc.Encode(&l.Records[i]); err != nil {
			return fmt.Errorf("flight: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// maxLineBytes bounds one JSONL line; a record line is a few hundred bytes,
// so 1 MiB leaves two orders of magnitude of headroom.
const maxLineBytes = 1 << 20

// ReadJSONL parses a flight log serialized by WriteJSONL, validating the
// schema identifier and rejecting versions newer than this build supports.
func ReadJSONL(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("flight: read header: %w", err)
		}
		return nil, fmt.Errorf("flight: empty log")
	}
	var l Log
	if err := json.Unmarshal(sc.Bytes(), &l.Header); err != nil {
		return nil, fmt.Errorf("flight: parse header: %w", err)
	}
	if l.Header.Schema != Schema {
		return nil, fmt.Errorf("flight: not a flight log (schema %q, want %q)", l.Header.Schema, Schema)
	}
	if l.Header.Version > SchemaVersion {
		return nil, fmt.Errorf("flight: log version %d is newer than supported version %d", l.Header.Version, SchemaVersion)
	}
	for line := 2; sc.Scan(); line++ {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("flight: parse record at line %d: %w", line, err)
		}
		l.Records = append(l.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flight: read: %w", err)
	}
	return &l, nil
}
