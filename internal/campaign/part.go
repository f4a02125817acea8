package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Part is a static share of a campaign: the cells whose index in the
// canonical Spec.Cells order is ≡ Index (mod Count). Cells are
// deterministic, the journal is append-only and the aggregator folds
// cells in any order, so parts can run on different machines and a run
// that merges their journals (Options.Merge) finalizes the same artifacts
// one process would have. The zero value is the whole campaign.
type Part struct {
	Index, Count int
}

// ParsePart parses "i/n" with 0 <= i < n.
func ParsePart(s string) (Part, error) {
	is, ns, ok := strings.Cut(s, "/")
	i, ierr := strconv.ParseUint(is, 10, 31)
	n, nerr := strconv.ParseUint(ns, 10, 31)
	if !ok || ierr != nil || nerr != nil || i >= n {
		return Part{}, fmt.Errorf("campaign: part %q is not i/n with 0 <= i < n", s)
	}
	return Part{Index: int(i), Count: int(n)}, nil
}

func (p Part) validate() error {
	if p == (Part{}) || (p.Index >= 0 && p.Index < p.Count) {
		return nil
	}
	return fmt.Errorf("campaign: part %d/%d is not i/n with 0 <= i < n", p.Index, p.Count)
}

// has reports whether the cell at canonical index i belongs to the part.
func (p Part) has(i int) bool { return p.Count <= 1 || i%p.Count == p.Index }

// importParts reads the part journals at paths, without writing them,
// and returns the cells they hold that have lacks. A part replays under
// the rules of the run's own journal: a header with this spec's hash,
// keys the spec enumerates, and a torn tail discarded. A cell that have
// or an earlier part already holds must carry the same result, resource
// measurements aside; a different one means the parts did not run the
// same code, and is an error.
func importParts(paths []string, sp Spec, cells []Cell, have map[string]CellResult) (map[string]CellResult, error) {
	merged := make(map[string]CellResult)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		part, _, err := replay(f, sp)
		f.Close()
		if errors.Is(err, errTornHeader) {
			return nil, fmt.Errorf("campaign: part journal %s has no readable header", path)
		}
		if err != nil {
			return nil, fmt.Errorf("%w (part journal %s)", err, path)
		}
		// Canonical order keeps the error for a conflicting part stable.
		for _, c := range cells {
			key := c.Key()
			res, ok := part[key]
			if !ok {
				continue
			}
			prev, held := have[key]
			if !held {
				prev, held = merged[key]
			}
			if !held {
				merged[key] = res
			} else if !sameResult(prev, res) {
				return nil, fmt.Errorf("campaign: part journal %s holds a different result for cell %s", path, key)
			}
		}
	}
	return merged, nil
}

// sameResult compares two journaled results, resource measurements aside.
func sameResult(a, b CellResult) bool {
	a.Resources, b.Resources = nil, nil
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
