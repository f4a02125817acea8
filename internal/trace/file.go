package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// FileTracer bundles the standard per-run artifact pair: a JSONL event
// stream plus a per-node counter registry, written next to it. Construct
// with NewFileTracer, hand Tracer() to the run, and Close when the run
// finishes — Close flushes the stream and writes the counter rollup to
// `<path minus .jsonl>.counters.json`.
type FileTracer struct {
	path     string
	f        *os.File
	jsonl    *JSONLWriter
	counters *Counters
	tracer   *Tracer
}

// NewFileTracer creates (truncating) the JSONL file at path and returns
// the bundle.
func NewFileTracer(path string) (*FileTracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: create %s: %w", path, err)
	}
	ft := &FileTracer{
		path:     path,
		f:        f,
		jsonl:    NewJSONLWriter(f),
		counters: NewCounters(),
	}
	ft.tracer = New(ft.jsonl, ft.counters)
	return ft, nil
}

// Tracer returns the tracer feeding both the JSONL stream and the
// counter registry. A nil FileTracer yields a nil (disabled) tracer, so
// callers can thread an optional bundle without branching.
func (ft *FileTracer) Tracer() *Tracer {
	if ft == nil {
		return nil
	}
	return ft.tracer
}

// CountersPath reports where Close writes the rollup.
func (ft *FileTracer) CountersPath() string {
	return strings.TrimSuffix(ft.path, ".jsonl") + ".counters.json"
}

// Close flushes the JSONL stream, closes the file, and writes the
// counter rollup artifact. Safe to call once.
func (ft *FileTracer) Close() error {
	flushErr := ft.jsonl.Flush()
	closeErr := ft.f.Close()
	if flushErr != nil {
		return fmt.Errorf("trace: flush %s: %w", ft.path, flushErr)
	}
	if closeErr != nil {
		return fmt.Errorf("trace: close %s: %w", ft.path, closeErr)
	}
	blob, err := json.MarshalIndent(ft.counters.Rollup(), "", "  ")
	if err != nil {
		return fmt.Errorf("trace: marshal counters: %w", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(ft.CountersPath(), blob, 0o644); err != nil {
		return fmt.Errorf("trace: write counters: %w", err)
	}
	return nil
}
